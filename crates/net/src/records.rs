//! Sorted record runs: the shuffle's record format from the map-side
//! spill to `reduce`.
//!
//! In memory a [`RecordRun`] is four columns: each key group's key
//! once, back to back in one `String`; every value back to back in
//! another; and `u32` ends into both. The records `(apple, d1)`,
//! `(apple, d7)`, `(pear, d3)` are held as
//!
//! ```text
//! keys    "applepear"     groups  [(5, 2), (9, 3)]   key end, record end
//! values  "d1d7d3"        ends    [2, 4, 6]          value end
//! ```
//!
//! so every reader slices `&str` out of the columns, with no varint to
//! walk and no UTF-8 to check again.
//!
//! On the wire, and only there, the records are front-coded. The record
//! section of a `ShuffleBatch` body is
//!
//! ```text
//! varint count
//! per record, in key order:
//!   varint shared    bytes the key shares with the previous key
//!   varint len + key suffix bytes
//!   varint len + value bytes
//! ```
//!
//! A key equal to its predecessor is the general rule's special case:
//! `shared` is the whole key and the suffix is empty.
//!
//! A map worker builds a run once per spill ([`RunBuilder`]). A run for
//! a reducer on the worker's own node goes through a channel as it is
//! and is never front-coded; a run for another node is front-coded into
//! its frame ([`RecordRun::encode`]) and decoded back into columns on
//! receipt ([`RecordRun::from_body`]), which validates it as it
//! decodes and frees the frame body. [`RecordRun::groups`] reads a run key
//! group by key group, and [`merge_groups`] k-way merges a partition's
//! runs into key groups. The executor merges the runs of an app without
//! a combiner, a partition's single run and an epoch fold's delta runs;
//! a combiner app's partition with several runs folds each run's groups
//! into a combining table instead.

use crate::wire::{append_short, CodecError, Reader, Writer, MAX_BODY};
use std::cmp::Ordering;
use std::fmt;

/// An owned, key-sorted run of `(key, value)` records, held as columns
/// (see the module docs). Keys never decrease; equal keys form one key
/// group, which holds its key once and its values in record order.
#[derive(Clone, Default, PartialEq)]
pub struct RecordRun {
    /// Each key group's key, back to back.
    keys: String,
    /// Every record's value, back to back.
    values: String,
    /// Per key group, in key order: where its key ends in `keys` and
    /// where its records end in `ends`. A group always holds a record.
    groups: Vec<GroupEnd>,
    /// Per record: where its value ends in `values`.
    ends: Vec<u32>,
}

/// Where one key group ends in a [`RecordRun`]'s columns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct GroupEnd {
    key: u32,
    records: u32,
}

impl RecordRun {
    /// The empty run.
    pub fn new() -> RecordRun {
        RecordRun::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The key groups in key order: each distinct key once, with its
    /// values in record order.
    pub fn groups(&self) -> Groups<'_> {
        Groups { run: self, next: 0 }
    }

    /// Build a run from owned pairs, sorting them by key first (stable:
    /// equal keys keep their order). For tests and adapters; the
    /// executor builds runs with a [`RunBuilder`].
    pub fn from_pairs<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> RecordRun {
        let mut order: Vec<&(K, V)> = pairs.iter().collect();
        order.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        let mut b = RunBuilder::default();
        for (k, v) in order {
            b.push(k.as_ref(), v.as_ref());
        }
        b.finish()
    }

    /// The records as owned pairs, in run order.
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        let records = self.groups().flat_map(|(k, vs)| vs.map(move |v| (k, v)));
        records.map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// Append the run to a message body, front-coded: the count, then
    /// the records (see the module docs).
    pub fn encode(&self, w: &mut Writer<'_>) {
        // Room for the usual case: suffixes no longer than their keys,
        // three one-byte varints per record, and a short value's block.
        w.reserve(26 + self.keys.len() + self.values.len() + 3 * self.len());
        w.varint(self.len() as u64);
        let (keys, values) = (self.keys.as_bytes(), self.values.as_bytes());
        let (mut key_at, mut first, mut value_at) = (0, 0, 0);
        let mut prev: &[u8] = &[];
        for g in &self.groups {
            let key = &keys[key_at..g.key as usize];
            let shared = common_prefix(prev, key);
            w.varint(shared as u64);
            w.vbytes(&key[shared..]);
            for (i, &end) in self.ends[first..g.records as usize].iter().enumerate() {
                let (at, len) = (value_at, end as usize - value_at);
                value_at = end as usize;
                if i > 0 && key.len() < 0x80 && len < 0x80 {
                    // A repeat, its head in one append: the whole key
                    // shared, an empty suffix.
                    w.raw(&[key.len() as u8, 0, len as u8]);
                } else {
                    if i > 0 {
                        w.varint(key.len() as u64);
                        w.u8(0);
                    }
                    w.varint(len as u64);
                }
                w.raw_from(values, at, len);
            }
            (key_at, first, prev) = (g.key as usize, g.records as usize, key);
        }
    }

    /// Take a message body by value and decode the front-coded run that
    /// fills it from byte `at` to the end into columns, validating it on
    /// the way: bounds, `shared <= previous key length` and that keys
    /// never decrease as it walks the records, then the UTF-8 of every
    /// key and every value, one column at a time. The first violation
    /// in record order is the error. The body is freed on return.
    ///
    /// The columns are sized from the body's length, never from the
    /// count it declares: every record takes at least three bytes. The
    /// key column, which holds each distinct key in full, is capped at
    /// [`MAX_BODY`] bytes: front-coding lets a few body bytes stand for a
    /// long key, so without a cap a small body could decode into
    /// gigabytes. A run travels in one frame, so the cap refuses only a
    /// run whose distinct keys, held in full, would outgrow a frame
    /// body. A body past 4 GiB, or a run whose keys would pass the cap,
    /// is a [`CodecError::FieldOverrun`].
    pub fn from_body(body: Vec<u8>, at: usize) -> Result<RecordRun, CodecError> {
        let rest = body.get(at..).ok_or(CodecError::FieldOverrun)?;
        // Values and records fit `u32` ends from here on.
        offset(rest.len())?;
        let mut d = Decoding::default();
        let decoded = d.decode(rest);
        // Keys and values are checked as UTF-8 after the walk, each
        // column as a whole: any of them decoded before a failure comes
        // before it in record order.
        let keys = checked_utf8(d.keys, d.groups.iter().map(|g| g.key))?;
        let values = checked_utf8(d.values, d.ends.iter().copied())?;
        decoded?;
        let mut run = RecordRun { keys, values, groups: d.groups, ends: d.ends };
        run.seal();
        Ok(run)
    }

    /// Key group `g`'s key.
    fn key(&self, g: usize) -> &str {
        let start = g.checked_sub(1).map_or(0, |p| self.groups[p].key);
        &self.keys[start as usize..self.groups[g].key as usize]
    }

    /// Key group `g`'s values.
    fn values(&self, g: usize) -> Values<'_> {
        let first = g.checked_sub(1).map_or(0, |p| self.groups[p].records as usize);
        let at = first.checked_sub(1).map_or(0, |i| self.ends[i] as usize);
        let ends = &self.ends[first..self.groups[g].records as usize];
        Values { values: &self.values, ends, at }
    }

    /// Close the last group and give back the columns' spare capacity.
    fn seal(&mut self) {
        let records = self.ends.len() as u32;
        if let Some(last) = self.groups.last_mut() {
            last.records = records;
        }
        self.keys.shrink_to_fit();
        self.values.shrink_to_fit();
        self.groups.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// Close the last of `groups` at record `records` and open one whose key
/// ends at `key_end`. The record count fits a `u32`: a decoded body is
/// below 4 GiB, and a builder checks its count.
#[inline]
fn open_group(groups: &mut Vec<GroupEnd>, key_end: u32, records: usize) {
    if let Some(last) = groups.last_mut() {
        last.records = records as u32;
    }
    groups.push(GroupEnd { key: key_end, records: 0 });
}

/// A run being decoded from the wire: its keys and values are raw
/// bytes until [`RecordRun::from_body`] checks each column at once.
#[derive(Default)]
struct Decoding {
    keys: Vec<u8>,
    groups: Vec<GroupEnd>,
    values: Vec<u8>,
    ends: Vec<u32>,
}

impl Decoding {
    /// Walk the front-coded records of `rest` into the columns, checking
    /// everything but the UTF-8 of the keys and values it keeps. A key
    /// that sorts below its predecessor is not kept, so it is checked
    /// here; its value is kept, as its UTF-8 error would come first.
    fn decode(&mut self, rest: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(rest);
        let count = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
        let (records, value_bytes) = capacities(count, rest.len() - r.position());
        // A short value's block may reach sixteen bytes past the end.
        self.values.reserve_exact(value_bytes + 16);
        self.ends.reserve_exact(records);
        let Decoding { keys, groups, values, ends } = self;
        // Where the previous key starts in `keys`; it runs to the end.
        let mut prev_at = 0;
        for i in 0..count {
            let shared = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
            let prev_len = keys.len() - prev_at;
            if shared > prev_len {
                return Err(CodecError::FieldOverrun);
            }
            let suffix = r.vbytes()?;
            // The new key is `prev[..shared] + suffix`: equal to `prev`
            // (the same group), above it or below it exactly as `suffix`
            // compares with the tail it replaces.
            let order = if i == 0 {
                Ordering::Greater
            } else if suffix.is_empty() && shared == prev_len {
                Ordering::Equal
            } else {
                suffix.cmp(&keys[prev_at + shared..])
            };
            match order {
                Ordering::Equal => {}
                Ordering::Greater => {
                    let key_at = keys.len();
                    if key_at + shared + suffix.len() > MAX_BODY {
                        return Err(CodecError::FieldOverrun);
                    }
                    keys.extend_from_within(prev_at..prev_at + shared);
                    keys.extend_from_slice(suffix);
                    open_group(groups, keys.len() as u32, ends.len());
                    prev_at = key_at;
                }
                Ordering::Less => check_key(&keys[prev_at..], shared, suffix)?,
            }
            let len = r.vbytes()?.len();
            append_short(values, rest, r.position() - len, len);
            ends.push(values.len() as u32);
            if order == Ordering::Less {
                return Err(CodecError::Unsorted);
            }
        }
        r.finish()
    }
}

/// Is `prev[..shared] + suffix` UTF-8, given that `prev` is? Only the
/// bytes from `prev`'s last character boundary at or before `shared`
/// need checking: a shared prefix may end inside a code point (`é`
/// then `ê`).
fn check_key(prev: &[u8], shared: usize, suffix: &[u8]) -> Result<(), CodecError> {
    let from = (0..=shared).rev().find(|&at| prev.get(at).is_none_or(|b| b & 0xc0 != 0x80));
    let mut tail = prev[from.unwrap_or(0)..shared].to_vec();
    tail.extend_from_slice(suffix);
    std::str::from_utf8(&tail).map(drop).map_err(|_| CodecError::BadUtf8)
}

/// `column` as a `String`, if every entry in it — cut at `ends` — is
/// UTF-8: the whole is, and every cut falls on a character boundary.
fn checked_utf8(column: Vec<u8>, mut ends: impl Iterator<Item = u32>) -> Result<String, CodecError> {
    let column = String::from_utf8(column).map_err(|_| CodecError::BadUtf8)?;
    if !ends.all(|end| column.is_char_boundary(end as usize)) {
        return Err(CodecError::BadUtf8);
    }
    Ok(column)
}

/// Room for the records of a front-coded run body that declares `count`
/// records in `room` bytes: `(records, value bytes)`. Each record holds
/// at least three varint bytes besides its value, so neither figure can
/// exceed what the body holds, whatever the count says.
fn capacities(count: usize, room: usize) -> (usize, usize) {
    let records = count.min(room / 3);
    (records, room - 3 * records)
}

/// A column offset as a `u32`.
#[inline]
fn offset(n: usize) -> Result<u32, CodecError> {
    u32::try_from(n).map_err(|_| CodecError::FieldOverrun)
}

impl fmt::Debug for RecordRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordRun")
            .field("len", &self.len())
            .field("groups", &self.groups.len())
            .field("key_bytes", &self.keys.len())
            .field("value_bytes", &self.values.len())
            .finish()
    }
}

/// A run's key groups in key order (see [`RecordRun::groups`]).
pub struct Groups<'a> {
    run: &'a RecordRun,
    next: usize,
}

impl<'a> Iterator for Groups<'a> {
    type Item = (&'a str, Values<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let g = self.next;
        if g == self.run.groups.len() {
            return None;
        }
        self.next += 1;
        Some((self.run.key(g), self.run.values(g)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.groups.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Groups<'_> {}

/// One key group's values in record order.
pub struct Values<'a> {
    values: &'a str,
    /// The ends of the values still to come.
    ends: &'a [u32],
    /// Where the next value starts.
    at: usize,
}

impl<'a> Iterator for Values<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let (&end, rest) = self.ends.split_first()?;
        let value = &self.values[self.at..end as usize];
        self.at = end as usize;
        self.ends = rest;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.ends.len(), Some(self.ends.len()))
    }
}

impl ExactSizeIterator for Values<'_> {}

/// Writes a [`RecordRun`]'s columns from `(key, value)` pairs given in
/// key order.
#[derive(Default)]
pub struct RunBuilder {
    run: RecordRun,
    /// Where the last key starts in the run's `keys`; it runs to the end.
    key_at: usize,
}

impl RunBuilder {
    /// A builder with room for `records` records whose values take
    /// `value_bytes` bytes; [`finish`](Self::finish) gives back what
    /// the run did not use.
    pub fn with_capacity(records: usize, value_bytes: usize) -> RunBuilder {
        let run = RecordRun {
            values: String::with_capacity(value_bytes),
            ends: Vec::with_capacity(records),
            ..RecordRun::default()
        };
        RunBuilder { run, key_at: 0 }
    }

    /// Append one record: a key equal to the previous one joins its key
    /// group.
    ///
    /// # Panics
    ///
    /// When `key` sorts below the previous key (a run is sorted by
    /// construction), or when the run's columns pass 4 GiB.
    pub fn push(&mut self, key: &str, value: &str) {
        let run = &mut self.run;
        let order = if run.groups.is_empty() {
            Ordering::Greater
        } else {
            key.as_bytes().cmp(&run.keys.as_bytes()[self.key_at..])
        };
        match order {
            Ordering::Equal => {}
            Ordering::Greater => {
                self.key_at = run.keys.len();
                run.keys.push_str(key);
                let key_end = offset(run.keys.len()).expect("a run's keys stay below 4 GiB");
                open_group(&mut run.groups, key_end, run.ends.len());
            }
            Ordering::Less => panic!("RunBuilder::push: keys must be pushed in order"),
        }
        self.push_value(value);
    }

    /// Append one record to the last key group: its key is the
    /// previous record's. A caller that knows the keys are equal skips
    /// [`push`](Self::push)'s key comparison.
    ///
    /// # Panics
    ///
    /// When the run is empty, or when its columns pass 4 GiB.
    #[inline]
    pub fn push_repeat(&mut self, value: &str) {
        assert!(!self.run.groups.is_empty(), "RunBuilder::push_repeat: no key to repeat");
        self.push_value(value);
    }

    #[inline]
    fn push_value(&mut self, value: &str) {
        let run = &mut self.run;
        run.values.push_str(value);
        let end = offset(run.values.len()).expect("a run's values stay below 4 GiB");
        assert!(run.ends.len() < u32::MAX as usize, "a run holds fewer than 2^32 records");
        run.ends.push(end);
    }

    /// Seal the run.
    pub fn finish(mut self) -> RecordRun {
        self.run.seal();
        self.run
    }
}

/// Length of the longest common prefix of `a` and `b`, in bytes.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    // Up to eight bytes at a time, as big-endian words: the first byte
    // that differs is their xor's count of leading zero bytes.
    let mut at = 0;
    while at < n {
        let x = key_prefix(&a[at..]) ^ key_prefix(&b[at..]);
        if x != 0 {
            return at + x.leading_zeros() as usize / 8;
        }
        at += 8;
    }
    n
}

/// A key's first eight bytes, big-endian and zero-padded: the spill
/// sort and the merge order keys by this before any key byte. Read with
/// fixed-size loads (a key of four to seven bytes as two overlapping
/// four-byte words), not a `memcpy` call of the key's length.
#[inline]
pub fn key_prefix(key: &[u8]) -> u64 {
    if let Some(head) = key.first_chunk::<8>() {
        return u64::from_be_bytes(*head);
    }
    match (key.first_chunk::<4>(), key.last_chunk::<4>()) {
        (Some(head), Some(tail)) => {
            let (head, tail) = (u32::from_be_bytes(*head), u32::from_be_bytes(*tail));
            u64::from(head) << 32 | u64::from(tail) << (8 * (8 - key.len()))
        }
        _ => key.iter().enumerate().fold(0, |p, (i, &b)| p | u64::from(b) << (56 - 8 * i)),
    }
}

/// K-way merge `runs` into key groups: `group(key, values)` is called
/// once per distinct key, in key order. A key's values arrive run by
/// run in the order `runs` yields them, and within a run in record
/// order: ties are broken by run position, so the merge is stable.
///
/// Each run's head is its current key group, with the key's
/// [`key_prefix`] and length cached, and heads order as the map side's
/// spill sort orders keys: by prefix; then, when either key is at most
/// eight bytes, by length (that key is then a prefix of the other);
/// otherwise by the bytes past the prefix; and then by run position.
/// The heads play a tournament (a loser tree): taking the winner's
/// whole key group and advancing its run replays one match per level.
pub fn merge_groups<'a>(
    runs: impl IntoIterator<Item = &'a RecordRun>,
    mut group: impl FnMut(&str, &[&'a str]),
) {
    let heads: Vec<Head<'a>> = runs.into_iter().filter_map(Head::first).collect();
    if heads.is_empty() {
        return;
    }
    let mut t = Tournament::new(heads);
    let mut values: Vec<&'a str> = Vec::new();
    while let Some(top) = t.winner() {
        let (key, prefix) = (top.key, top.prefix);
        // Every run at this key wins in turn, in run order.
        loop {
            let top = &mut t.heads[t.tree[0]];
            values.extend(top.run.values(top.group));
            top.advance();
            t.replay();
            if !t.winner().is_some_and(|h| h.holds(key, prefix)) {
                break;
            }
        }
        group(key, &values);
        values.clear();
    }
}

/// One run's current key group in [`merge_groups`].
struct Head<'a> {
    prefix: u64,
    key: &'a str,
    run: &'a RecordRun,
    group: usize,
}

impl<'a> Head<'a> {
    /// The head of `run`'s first group, unless the run is empty.
    fn first(run: &'a RecordRun) -> Option<Head<'a>> {
        let key = (!run.groups.is_empty()).then(|| run.key(0))?;
        Some(Head { prefix: key_prefix(key.as_bytes()), key, run, group: 0 })
    }

    /// Step to the run's next group, if it has one.
    fn advance(&mut self) {
        self.group += 1;
        if !self.done() {
            self.key = self.run.key(self.group);
            self.prefix = key_prefix(self.key.as_bytes());
        }
    }

    /// Is the run exhausted?
    fn done(&self) -> bool {
        self.group == self.run.groups.len()
    }

    /// Is the head's key `key`, whose prefix is `prefix`?
    fn holds(&self, key: &str, prefix: u64) -> bool {
        self.prefix == prefix
            && self.key.len() == key.len()
            && (key.len() <= 8 || self.key.as_bytes()[8..] == key.as_bytes()[8..])
    }

    /// The order of this head's key and `other`'s.
    fn order(&self, other: &Head<'_>) -> Ordering {
        let (a, b) = (self.key.as_bytes(), other.key.as_bytes());
        self.prefix.cmp(&other.prefix).then_with(|| {
            if a.len().min(b.len()) <= 8 {
                a.len().cmp(&b.len())
            } else {
                a[8..].cmp(&b[8..])
            }
        })
    }
}

/// A loser tree over the heads of [`merge_groups`]: `tree[0]` is the
/// winner, and internal node `n` in `1..k` holds the loser of the match
/// between its children `2n` and `2n + 1`, where node `k + i` is head
/// `i`. An exhausted head loses every match.
struct Tournament<'a> {
    heads: Vec<Head<'a>>,
    tree: Vec<usize>,
}

impl<'a> Tournament<'a> {
    fn new(heads: Vec<Head<'a>>) -> Tournament<'a> {
        let k = heads.len();
        let mut t = Tournament { heads, tree: vec![0; k] };
        // The winner of each node's subtree, built bottom up; node
        // `k + i` is head `i`.
        let mut wins: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
        for n in (1..k).rev() {
            let (a, b) = (wins[2 * n], wins[2 * n + 1]);
            let a_wins = t.beats(a, b);
            (wins[n], t.tree[n]) = if a_wins { (a, b) } else { (b, a) };
        }
        t.tree[0] = wins[1];
        t
    }

    /// Does head `a` pop before head `b`?
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        let (x, y) = (&self.heads[a], &self.heads[b]);
        !x.done() && (y.done() || x.order(y).then(a.cmp(&b)).is_lt())
    }

    /// The winning head, unless every run is exhausted.
    fn winner(&self) -> Option<&Head<'a>> {
        let top = &self.heads[self.tree[0]];
        (!top.done()).then_some(top)
    }

    /// Replay the winner's path to the root after it advanced.
    fn replay(&mut self) {
        let mut winner = self.tree[0];
        let mut n = (self.heads.len() + winner) / 2;
        while n > 0 {
            if self.beats(self.tree[n], winner) {
                std::mem::swap(&mut self.tree[n], &mut winner);
            }
            n /= 2;
        }
        self.tree[0] = winner;
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
    fn builder_columns_read_back_and_encode_front_coded() {
        let recs = pairs(&[("", "e"), ("a", ""), ("ab", "1"), ("ab", "2"), ("b", "x"), ("é", "1"), ("ê", "2")]);
        let run = RecordRun::from_pairs(&recs);
        assert_eq!(run.len(), recs.len());
        assert_eq!(run.to_pairs(), recs);
        // One group per distinct key, its key held once.
        let groups: Vec<(&str, Vec<&str>)> = run.groups().map(|(k, vs)| (k, vs.collect())).collect();
        assert_eq!(groups[2], ("ab", vec!["1", "2"]));
        assert_eq!(groups.len(), 6);
        assert_eq!(run.keys, "aabbéê");
        // "ab" after "a" shares one byte; the repeat shares both; "ê"
        // shares the first byte of "é".
        let body = body_of(&run);
        assert_eq!(&body[..11], &[7, 0, 0, 1, b'e', 0, 1, b'a', 0, 1, 1]);
        let back = RecordRun::from_body(body, 0).expect("valid run");
        assert_eq!(back, run);
        assert_eq!(back.to_pairs(), recs);
    }

    #[test]
    fn from_body_decodes_past_a_header_prefix() {
        let run = RecordRun::from_pairs(&pairs(&[("k", "v"), ("kk", "w")]));
        let mut body = vec![9u8; 20];
        run.encode(&mut Writer::new(&mut body));
        let back = RecordRun::from_body(body, 20).unwrap();
        assert_eq!(back, run);
        assert_eq!((back.keys.capacity(), back.values.capacity()), (3, 2), "no spare room kept");
    }

    #[test]
    fn an_untrusted_count_sizes_nothing() {
        // A count of 2^40 in a 20-byte body: six varint bytes, then
        // fourteen bytes holding four empty records and a cut one.
        let mut body = Vec::new();
        Writer::new(&mut body).varint(1 << 40);
        body.resize(20, 0);
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::FieldOverrun));
        // The columns were sized for what fourteen bytes can hold.
        assert_eq!(capacities(1 << 40, 14), (4, 2));
        assert_eq!(capacities(usize::MAX, 0), (0, 0));
        assert_eq!(capacities(2, 100), (2, 94));
    }

    /// A body of one `first`-byte key followed by `extra` records, each
    /// of which shares all of the previous key and adds one byte: each
    /// record costs the body a few bytes and the key column a whole key.
    fn expanding_body(first: usize, extra: usize) -> Vec<u8> {
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(1 + extra as u64);
        w.varint(0);
        w.vbytes(&vec![b'a'; first]);
        w.vbytes(b"");
        for i in 0..extra {
            w.varint((first + i) as u64);
            w.vbytes(b"b");
            w.vbytes(b"");
        }
        body
    }

    #[test]
    fn expanding_keys_decode_up_to_the_key_cap() {
        // 15,006 body bytes stand for 10,510,500 key bytes: below the
        // cap, so the run decodes in full.
        let body = expanding_body(10_000, 1_000);
        assert_eq!(body.len(), 15_006);
        let run = RecordRun::from_body(body, 0).expect("within the cap");
        assert_eq!((run.len(), run.keys.len()), (1_001, 10_510_500));
        // An 8 MiB key extended eight times, in a body of about 8 MiB:
        // the seventh extension would bring the key column to 64 MiB + 28
        // bytes, so it is refused before it is copied and the column
        // never passes the cap.
        let body = expanding_body(8 << 20, 8);
        assert!(body.len() < (8 << 20) + 8 * 8);
        let mut d = Decoding::default();
        assert_eq!(d.decode(&body), Err(CodecError::FieldOverrun));
        assert_eq!(d.groups.len(), 7);
        assert!(d.keys.len() <= MAX_BODY && d.keys.capacity() <= MAX_BODY);
        drop(d);
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::FieldOverrun));
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
    fn values_that_split_a_code_point_are_bad_utf8() {
        // "a" twice, with values c3 and a9: each half of "é" alone is
        // not UTF-8, though the two side by side in the value column
        // are.
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(2);
        for (shared, suffix, value) in [(0, &b"a"[..], &[0xc3u8][..]), (1, b"", &[0xa9])] {
            w.varint(shared);
            w.vbytes(suffix);
            w.vbytes(value);
        }
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::BadUtf8));
    }

    #[test]
    fn a_repeat_written_the_long_way_joins_its_group() {
        // "ab" then "ab" again, as shared 1 + suffix "b" rather than
        // the repeat form: one key group, and `encode` writes the
        // repeat form back.
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(2);
        for (shared, suffix, value) in [(0, &b"ab"[..], b"1"), (1, b"b", b"2")] {
            w.varint(shared);
            w.vbytes(suffix);
            w.vbytes(value);
        }
        let run = RecordRun::from_body(body, 0).unwrap();
        assert_eq!(run, RecordRun::from_pairs(&[("ab", "1"), ("ab", "2")]));
        assert_eq!(run.groups().len(), 1);
        assert_eq!(body_of(&run), [2, 0, 2, b'a', b'b', 1, b'1', 2, 0, 1, b'2']);
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
                    // A lucky flip decodes; its records read back whole.
                    assert_eq!(r.to_pairs().len(), r.len());
                    assert_eq!(RecordRun::from_body(body_of(&r), 0), Ok(r));
                }
            }
        }
    }

    #[test]
    fn key_prefix_is_the_zero_padded_big_endian_head() {
        let long = b"\xffabcdefghi";
        for n in 0..=long.len() {
            let mut padded = [0u8; 8];
            let m = n.min(8);
            padded[..m].copy_from_slice(&long[..m]);
            assert_eq!(key_prefix(&long[..n]), u64::from_be_bytes(padded), "{n} bytes");
        }
        assert_eq!(key_prefix(b"a"), key_prefix(b"a\0"));
    }

    #[test]
    fn common_prefix_counts_across_whole_words() {
        let long = b"abcdefghijklmnopq";
        for n in 0..=long.len() {
            for m in 0..=long.len() {
                assert_eq!(common_prefix(&long[..n], &long[..m]), n.min(m));
            }
            let mut other = long.to_vec();
            if n < other.len() {
                other[n] ^= 0x80;
                assert_eq!(common_prefix(long, &other), n, "differ at {n}");
                assert_eq!(common_prefix(&other, long), n, "differ at {n}");
            }
        }
        assert_eq!(common_prefix(b"a\0", b"a"), 1);
        assert_eq!(common_prefix("é".as_bytes(), "ê".as_bytes()), 1);
    }

    #[test]
    #[should_panic(expected = "keys must be pushed in order")]
    fn builder_refuses_a_decreasing_key() {
        let mut b = RunBuilder::default();
        b.push("b", "");
        b.push("a", "");
    }

    #[test]
    fn a_pushed_repeat_joins_the_last_group() {
        let mut b = RunBuilder::default();
        b.push("k", "1");
        b.push_repeat("2");
        b.push("l", "3");
        b.push_repeat("");
        let want = pairs(&[("k", "1"), ("k", "2"), ("l", "3"), ("l", "")]);
        assert_eq!(b.finish(), RecordRun::from_pairs(&want));
    }

    #[test]
    #[should_panic(expected = "no key to repeat")]
    fn builder_refuses_a_repeat_of_nothing() {
        RunBuilder::default().push_repeat("v");
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

    #[test]
    fn merge_orders_keys_that_share_their_prefix() {
        // Equal 8-byte prefixes: "a" < "a\0" by length, 7 < 8 < 9 < 16
        // bytes by length, and two 9-byte keys by their last byte.
        let keys = ["a", "a\0", "abcdefg", "abcdefgh", "abcdefgh\0", "abcdefgha", "abcdefghabcdefgh"];
        let runs: Vec<RecordRun> = keys
            .iter()
            .rev()
            .enumerate()
            .map(|(i, k)| RecordRun::from_pairs(&[(*k, i.to_string()), ("abcdefgh", format!("{i}"))]))
            .collect();
        let mut got = Vec::new();
        merge_groups(&runs, |k, vs| got.push((k.to_string(), vs.len())));
        let want: Vec<(String, usize)> =
            keys.iter().map(|k| (k.to_string(), if *k == "abcdefgh" { 8 } else { 1 })).collect();
        assert_eq!(got, want);
    }
}

