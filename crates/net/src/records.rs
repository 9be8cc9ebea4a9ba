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
//! On the wire the run section of a `ShuffleBatch` body carries the
//! same columns: the key groups, front-coded, then the value lengths,
//! then the value column as one block.
//!
//! ```text
//! varint G (key groups), varint R (records)
//! G group heads, in key order:
//!   varint (shared << 1 | multi)   bytes shared with the previous group's key;
//!                                  multi = the group holds 2+ records
//!   varint suffix_len, suffix bytes
//!   [varint records - 2]           only when multi
//! R value lengths, one varint each
//! the value bytes, back to back    = the run's `values` column
//! ```
//!
//! The three records above are `2, 3`, the heads `(0 << 1 | 1), 5,
//! "apple", 0` and `(0 << 1 | 0), 4, "pear"`, the lengths `2, 2, 2` and
//! the block `"d1d7d3"`. A record that repeats its key costs the wire
//! one length byte and its value.
//!
//! A map worker builds a run once per spill ([`RunBuilder`]). A run for
//! a reducer on the worker's own node goes through a channel as it is
//! and is never encoded; a run for another node is encoded into its
//! frame ([`RecordRun::encode`]) and decoded back into columns on
//! receipt ([`RecordRun::from_body`]), which validates it as it
//! decodes and frees the frame body. [`RecordRun::groups`] reads a run key
//! group by key group, and [`merge_groups`] k-way merges a partition's
//! runs into key groups. The executor merges the runs of an app without
//! a combiner, a partition's single run and an epoch fold's delta runs;
//! a combiner app's partition with several runs folds each run's groups
//! into a combining table instead.

use crate::wire::{CodecError, Reader, Writer, MAX_BODY};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

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

    /// Append the run to a message body (see the module docs): the
    /// counts, each key group's head, each value's length, then the
    /// value column in one append.
    pub fn encode(&self, w: &mut Writer<'_>) {
        let (keys, values) = (self.keys.as_bytes(), self.values.as_bytes());
        // Room for the usual case: one-byte varints, and suffixes no
        // longer than their keys.
        w.reserve(20 + 3 * self.groups.len() + keys.len() + self.len() + values.len());
        w.varint(self.groups.len() as u64);
        w.varint(self.len() as u64);
        let (mut key_at, mut first) = (0, 0);
        let mut prev: &[u8] = &[];
        for g in &self.groups {
            let end = g.key as usize;
            write_head(w, prev, keys, key_at..end, g.records as usize - first);
            (key_at, first, prev) = (end, g.records as usize, &keys[key_at..end]);
        }
        let mut at = 0;
        for &end in &self.ends {
            w.varint(u64::from(end - at));
            at = end;
        }
        w.raw(values);
    }

    /// Append `records` to a message body as a run section, in the
    /// order given: each run of consecutive equal keys is one key group,
    /// whatever the key order. The owned shuffle batch's encoder: for
    /// key-sorted records it writes what [`encode`](Self::encode) writes
    /// for their run.
    pub(crate) fn encode_pairs(records: &[(String, String)], w: &mut Writer<'_>) {
        let groups = || records.chunk_by(|a, b| a.0 == b.0);
        w.varint(groups().count() as u64);
        w.varint(records.len() as u64);
        let mut prev: &[u8] = &[];
        for g in groups() {
            let key = g[0].0.as_bytes();
            write_head(w, prev, key, 0..key.len(), g.len());
            prev = key;
        }
        for (_, v) in records {
            w.varint(v.len() as u64);
        }
        for (_, v) in records {
            w.raw(v.as_bytes());
        }
    }

    /// Take a message body by value and decode the run section that
    /// fills it from byte `at` to the end into columns, validating it
    /// on the way. The checks, in order, and the first violation is the
    /// error:
    ///
    /// - the counts: each group holds a record, each group head takes at
    ///   least two bytes and each record's length one, so `G <= R` and
    ///   `2G + R` fit what follows them; nothing is sized before this;
    /// - group by group: `shared` no longer than the previous key; the
    ///   suffix and the record count in bounds; the records counted so
    ///   far no more than `R`; a key above its predecessor (keys
    ///   strictly increase, or the run is [`CodecError::Unsorted`]); the
    ///   key column no longer than [`MAX_BODY`];
    /// - the groups' records add up to `R`;
    /// - every value's end in bounds, and the value block exactly what
    ///   is left;
    /// - the key column, then the value column, is UTF-8 and every end
    ///   in it falls on a character boundary.
    ///
    /// The key column holds each distinct key in full, and front-coding
    /// lets a few body bytes stand for a long key: the cap keeps a small
    /// body from decoding into gigabytes. A run travels in one frame, so
    /// it refuses only a run whose distinct keys, held in full, would
    /// outgrow a frame body. The value block is taken in one copy, and
    /// the body is freed on return.
    pub fn from_body(body: Vec<u8>, at: usize) -> Result<RecordRun, CodecError> {
        RecordRun::decode(body.get(at..).ok_or(CodecError::FieldOverrun)?, true)
    }

    /// Decode the run section that fills `section` into columns, with
    /// [`from_body`](Self::from_body)'s checks; the key order is checked
    /// only when `ordered`.
    pub(crate) fn decode(section: &[u8], ordered: bool) -> Result<RecordRun, CodecError> {
        // Every end fits a `u32` from here on.
        offset(section.len())?;
        let mut r = Reader::new(section);
        let (groups, records) = counts(&mut r, section.len())?;
        let mut keys = Vec::new();
        let mut group_ends = Vec::with_capacity(groups);
        read_heads(&mut r, &mut keys, &mut group_ends, groups, records, ordered)?;
        let mut ends = Vec::with_capacity(records);
        let mut end = 0usize;
        for _ in 0..records {
            let len = r.varint()?;
            if len > (section.len() - end) as u64 {
                return Err(CodecError::FieldOverrun);
            }
            end += len as usize;
            ends.push(end as u32);
        }
        let block = &section[r.position()..];
        match end.cmp(&block.len()) {
            Ordering::Greater => return Err(CodecError::FieldOverrun),
            Ordering::Less => return Err(CodecError::Trailing(block.len() - end)),
            Ordering::Equal => {}
        }
        let keys = checked_utf8(keys, group_ends.iter().map(|g| g.key))?;
        let values = checked_utf8(block.to_vec(), ends.iter().copied())?;
        let mut run = RecordRun { keys, values, groups: group_ends, ends };
        run.keys.shrink_to_fit();
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

/// Write the head of a key group whose key is `src[key]`, front-coded
/// against the previous group's key `prev`, and which holds `records`
/// records (see the module docs). A short suffix is copied as one
/// fixed-size block when `src` has the room ([`Writer::raw_from`]).
/// Inlined into both encoders: as a call per group it cost the run
/// encoder a tenth of its time.
#[inline(always)]
fn write_head(w: &mut Writer<'_>, prev: &[u8], src: &[u8], key: Range<usize>, records: usize) {
    let shared = common_prefix(prev, &src[key.clone()]);
    w.varint((shared as u64) << 1 | u64::from(records > 1));
    w.varint((key.len() - shared) as u64);
    w.raw_from(src, key.start + shared, key.len() - shared);
    if records > 1 {
        w.varint(records as u64 - 2);
    }
}

/// Read a run section's counts `(G, R)`, refusing any the `section`
/// bytes cannot hold (see [`RecordRun::from_body`]).
fn counts(r: &mut Reader<'_>, section: usize) -> Result<(usize, usize), CodecError> {
    let (groups, records) = (r.varint()?, r.varint()?);
    let left = (section - r.position()) as u64;
    if groups > records || groups.saturating_mul(2).saturating_add(records) > left {
        return Err(CodecError::FieldOverrun);
    }
    Ok((groups as usize, records as usize))
}

/// Read `groups` key group heads from `r`, appending each group's key
/// to `keys` and its ends to `ends` (see [`RecordRun::from_body`] for
/// the checks). The key column is raw bytes until the caller checks it
/// as UTF-8.
///
/// A key is rebuilt with no call per group. The previous key's first
/// sixteen bytes are kept as one big-endian word, zero-padded; a key of
/// at most sixteen bytes whose suffix is at most eight is that word cut
/// to `shared` bytes with the suffix's [`key_prefix`] word shifted in,
/// stored as one sixteen-byte block and cut back to length. Its order
/// against its predecessor is the suffix's against the tail it
/// replaces, and when both are at most eight bytes it is read off their
/// words, as the spill sort and the merge compare keys.
fn read_heads(
    r: &mut Reader<'_>,
    keys: &mut Vec<u8>,
    ends: &mut Vec<GroupEnd>,
    groups: usize,
    records: usize,
    ordered: bool,
) -> Result<(), CodecError> {
    // The previous key starts at `prev_at` and runs to the end of
    // `keys`; `head` is its first sixteen bytes, zero-padded.
    let (mut prev_at, mut head) = (0, 0u128);
    let mut counted = 0usize;
    for g in 0..groups {
        let word = r.varint()?;
        let key_at = keys.len();
        let prev_len = key_at - prev_at;
        let shared = usize::try_from(word >> 1)
            .ok()
            .filter(|&shared| shared <= prev_len)
            .ok_or(CodecError::FieldOverrun)?;
        let suffix = r.vbytes()?;
        let n = if word & 1 == 0 { Some(1) } else { r.varint()?.checked_add(2) };
        counted = n
            .and_then(|n| usize::try_from(n).ok())
            .and_then(|n| counted.checked_add(n))
            .filter(|&counted| counted <= records)
            .ok_or(CodecError::FieldOverrun)?;
        let suffix_word = key_prefix(suffix);
        if ordered && g > 0 {
            let tail = prev_len - shared;
            let order = if suffix.len() <= 8 && tail <= 8 && prev_len <= 16 {
                (suffix_word, suffix.len()).cmp(&(word_from(head, shared), tail))
            } else {
                key_order(suffix, &keys[prev_at + shared..])
            };
            if order.is_le() {
                return Err(CodecError::Unsorted);
            }
        }
        let end = key_at + shared + suffix.len();
        if end > MAX_BODY {
            return Err(CodecError::FieldOverrun);
        }
        if suffix.len() <= 8 && end - key_at <= 16 {
            let kept = head & !shr(u128::MAX, shared);
            head = kept | shr(u128::from(suffix_word) << 64, shared);
            keys.extend_from_slice(&head.to_be_bytes());
        } else {
            if shared <= 16 {
                keys.extend_from_slice(&head.to_be_bytes());
                keys.truncate(key_at + shared);
            } else {
                keys.extend_from_within(prev_at..prev_at + shared);
            }
            keys.extend_from_slice(suffix);
            keys.extend_from_slice(&[0; 16]);
            head = u128::from_be_bytes(*keys[key_at..].first_chunk().expect("sixteen bytes appended"));
        }
        keys.truncate(end);
        ends.push(GroupEnd { key: end as u32, records: counted as u32 });
        prev_at = key_at;
    }
    if counted != records {
        return Err(CodecError::FieldOverrun);
    }
    Ok(())
}

/// `word` shifted right by `bytes` bytes, at most sixteen.
#[inline]
fn shr(word: u128, bytes: usize) -> u128 {
    word.checked_shr(8 * bytes as u32).unwrap_or(0)
}

/// The eight bytes of the big-endian `head` from byte `at` on, at most
/// sixteen, as a big-endian word, zero-padded.
#[inline]
fn word_from(head: u128, at: usize) -> u64 {
    (head.checked_shl(8 * at as u32).unwrap_or(0) >> 64) as u64
}

/// `column` as a `String`, if every entry in it — cut at `ends` — is
/// UTF-8: the whole is, and every cut falls on a character boundary.
fn checked_utf8(column: Vec<u8>, mut ends: impl Iterator<Item = u32>) -> Result<String, CodecError> {
    let column = String::from_utf8(column).map_err(|_| CodecError::BadUtf8)?;
    if !column.is_ascii() && !ends.all(|end| column.is_char_boundary(end as usize)) {
        return Err(CodecError::BadUtf8);
    }
    Ok(column)
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
                // Close the last group: its record count fits a `u32`,
                // as `push_value` checks.
                if let Some(last) = run.groups.last_mut() {
                    last.records = run.ends.len() as u32;
                }
                self.key_at = run.keys.len();
                run.keys.push_str(key);
                let key = offset(run.keys.len()).expect("a run's keys stay below 4 GiB");
                run.groups.push(GroupEnd { key, records: 0 });
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
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
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

/// The byte order of `a` and `b`, compared as the spill sort and the
/// merge compare keys: by [`key_prefix`] first, then as
/// [`past_prefix`] says.
#[inline]
fn key_order(a: &[u8], b: &[u8]) -> Ordering {
    key_prefix(a).cmp(&key_prefix(b)).then_with(|| past_prefix(a, b))
}

/// The byte order of `a` and `b`, whose [`key_prefix`]es are equal: by
/// length when either is at most eight bytes (it is then a prefix of
/// the other), otherwise by the bytes past the prefix.
#[inline]
fn past_prefix(a: &[u8], b: &[u8]) -> Ordering {
    if a.len().min(b.len()) <= 8 {
        a.len().cmp(&b.len())
    } else {
        a[8..].cmp(&b[8..])
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
        self.prefix.cmp(&other.prefix).then_with(|| past_prefix(a, b))
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

    fn pairs_body(records: &[(String, String)]) -> Vec<u8> {
        let mut body = Vec::new();
        RecordRun::encode_pairs(records, &mut Writer::new(&mut body));
        body
    }

    fn pairs(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// A run section written head by head: `heads` are `(shared,
    /// suffix, records)` and `values` every record's value, in order.
    fn section(heads: &[(u64, &[u8], u64)], values: &[&[u8]]) -> Vec<u8> {
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(heads.len() as u64);
        w.varint(values.len() as u64);
        for &(shared, suffix, records) in heads {
            w.varint(shared << 1 | u64::from(records > 1));
            w.vbytes(suffix);
            if records > 1 {
                w.varint(records - 2);
            }
        }
        for v in values {
            w.varint(v.len() as u64);
        }
        for v in values {
            w.raw(v);
        }
        body
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
        // Six group heads: "ab" after "a" shares one byte and holds two
        // records; "ê" shares the first byte of "é". Then seven value
        // lengths and the value column.
        let body = body_of(&run);
        #[rustfmt::skip]
        let want = [
            6, 7,
            0, 0,                 // ""
            0, 1, b'a',           // "a"
            3, 1, b'b', 0,        // "ab": shared 1, multi, 2 records
            0, 1, b'b',           // "b"
            0, 2, 0xc3, 0xa9,     // "é"
            2, 1, 0xaa,           // "ê": shared 1
            1, 0, 1, 1, 1, 1, 1,  // value lengths
            b'e', b'1', b'2', b'x', b'1', b'2',
        ];
        assert_eq!(body, want);
        assert_eq!(section(&[(0, b"", 1), (0, b"a", 1), (1, b"b", 2)], &[b"e", b"", b"1", b"2"]), {
            body_of(&RecordRun::from_pairs(&recs[..4]))
        });
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
        // A group or record count of 2^40 in a 20-byte body is refused
        // before anything is sized.
        for (groups, records) in [(1 << 40, 1 << 40), (1, 1 << 40), (1 << 40, 1)] {
            let mut body = Vec::new();
            let mut w = Writer::new(&mut body);
            w.varint(groups);
            w.varint(records);
            body.resize(20, 0);
            assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::FieldOverrun));
        }
        // What the counts leave must hold two bytes per group head and
        // one per record length, and every group holds a record.
        let counted = |g: u8, r: u8, left: usize| {
            let mut body = vec![g, r];
            body.resize(2 + left, 0);
            counts(&mut Reader::new(&body), body.len())
        };
        assert_eq!(counted(3, 4, 10), Ok((3, 4)));
        assert_eq!(counted(3, 4, 9), Err(CodecError::FieldOverrun));
        assert_eq!(counted(5, 4, 100), Err(CodecError::FieldOverrun));
        assert_eq!(counted(0, 0, 0), Ok((0, 0)));
    }

    /// A section of one `first`-byte key followed by `extra` key groups,
    /// each of which shares all of the previous key and adds one byte:
    /// each group costs the body a few bytes and the key column a whole
    /// key. Every value is empty.
    fn expanding_section(first: usize, extra: usize) -> Vec<u8> {
        let a = vec![b'a'; first];
        let mut heads = vec![(0, &a[..], 1)];
        heads.extend((0..extra).map(|i| ((first + i) as u64, &b"b"[..], 1)));
        section(&heads, &vec![&b""[..]; 1 + extra])
    }

    #[test]
    fn expanding_keys_decode_up_to_the_key_cap() {
        // 16,008 body bytes stand for 10,510,500 key bytes: below the
        // cap, so the run decodes in full.
        let body = expanding_section(10_000, 1_000);
        assert_eq!(body.len(), 16_008);
        let run = RecordRun::from_body(body, 0).expect("within the cap");
        assert_eq!((run.len(), run.keys.len()), (1_001, 10_510_500));
        // An 8 MiB key extended eight times, in a body of about 8 MiB:
        // the seventh extension would bring the key column to 64 MiB + 28
        // bytes, so it is refused before it is copied and the column
        // never passes the cap.
        let body = expanding_section(8 << 20, 8);
        assert!(body.len() < (8 << 20) + 100);
        let mut r = Reader::new(&body);
        let (groups, records) = counts(&mut r, body.len()).unwrap();
        let (mut keys, mut ends) = (Vec::new(), Vec::new());
        let heads = read_heads(&mut r, &mut keys, &mut ends, groups, records, true);
        assert_eq!(heads, Err(CodecError::FieldOverrun));
        assert_eq!(ends.len(), 7);
        assert!(keys.len() <= MAX_BODY && keys.capacity() <= MAX_BODY);
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::FieldOverrun));
    }

    #[test]
    fn validation_rejects_each_malformation() {
        let decoded = |body: Vec<u8>| RecordRun::from_body(body, 0);
        // Unsorted keys: "b" then "a"; and a key equal to its
        // predecessor's, which belongs in its group.
        let unsorted = section(&[(0, b"b", 1), (0, b"a", 1)], &[b"v", b"v"]);
        assert_eq!(decoded(unsorted), Err(CodecError::Unsorted));
        let repeat = section(&[(0, b"ab", 1), (1, b"b", 1)], &[b"1", b"2"]);
        assert_eq!(decoded(repeat), Err(CodecError::Unsorted));
        // Shared prefix longer than the previous key.
        let overlong = section(&[(0, b"a", 1), (2, b"b", 1)], &[b"", b""]);
        assert_eq!(decoded(overlong), Err(CodecError::FieldOverrun));
        // A reconstructed key that is not UTF-8: "é" (c3 a9) then a key
        // sharing only its first byte with a bad continuation.
        let split_char = section(&[(0, "é".as_bytes(), 1), (1, &[0xff], 1)], &[b"", b""]);
        assert_eq!(decoded(split_char), Err(CodecError::BadUtf8));
        // A value that is not UTF-8.
        assert_eq!(decoded(section(&[(0, b"k", 1)], &[&[0xc3]])), Err(CodecError::BadUtf8));
        // Groups that hold more records than the section declares, or
        // fewer.
        let mut body = section(&[(0, b"k", 2)], &[b"v", b"w"]);
        body[1] = 1;
        assert_eq!(decoded(body), Err(CodecError::FieldOverrun));
        let mut body = section(&[(0, b"k", 1)], &[b"v", b"w"]);
        body[0] = 1;
        assert_eq!(decoded(body), Err(CodecError::FieldOverrun));
        // Lengths past the value block, and bytes past it.
        let run = RecordRun::from_pairs(&pairs(&[("k", "v")]));
        let mut body = body_of(&run);
        body.pop();
        assert_eq!(decoded(body), Err(CodecError::FieldOverrun));
        let mut body = body_of(&run);
        body.push(b'x');
        assert_eq!(decoded(body), Err(CodecError::Trailing(1)));
        assert_eq!(decoded(vec![]), Err(CodecError::FieldOverrun));
        assert_eq!(RecordRun::from_body(vec![], 1), Err(CodecError::FieldOverrun));
        assert_eq!(decoded(vec![0, 0]), Ok(RecordRun::new()));
    }

    #[test]
    fn values_that_split_a_code_point_are_bad_utf8() {
        // "a" twice, with values c3 and a9: each half of "é" alone is
        // not UTF-8, though the two side by side in the value column
        // are.
        let body = section(&[(0, b"a", 2)], &[&[0xc3], &[0xa9]]);
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::BadUtf8));
    }

    #[test]
    fn a_repeated_group_key_is_unsorted_but_joins_its_group_in_the_owned_form() {
        // "ab" then "ab" again, as a second group sharing 1 byte plus
        // suffix "b": a run refuses it, as keys must strictly increase.
        // The owned form takes any order and reads two records, and its
        // encoder writes them back as one group.
        let body = section(&[(0, b"ab", 1), (1, b"b", 1)], &[b"1", b"2"]);
        assert_eq!(RecordRun::from_body(body.clone(), 0), Err(CodecError::Unsorted));
        let recs = RecordRun::decode(&body, false).unwrap().to_pairs();
        assert_eq!(recs, pairs(&[("ab", "1"), ("ab", "2")]));
        assert_eq!(pairs_body(&recs), section(&[(0, b"ab", 2)], &[b"1", b"2"]));
        assert_eq!(pairs_body(&recs), body_of(&RecordRun::from_pairs(&recs)));
        // Out of order, each change of key opens a group.
        let recs = pairs(&[("b", "1"), ("a", "2"), ("a", "3"), ("b", "4")]);
        let body = pairs_body(&recs);
        assert_eq!(body, section(&[(0, b"b", 1), (0, b"a", 2), (0, b"b", 1)], &[b"1", b"2", b"3", b"4"]));
        assert_eq!(RecordRun::decode(&body, false).unwrap().to_pairs(), recs);
    }

    #[test]
    fn keys_rebuild_and_order_across_the_fixed_blocks() {
        // Keys that share 0..=20 bytes with their predecessors and add
        // suffixes of 0..=12 bytes: either side of the sixteen-byte head
        // block and the eight-byte suffix word.
        let base = "abcdefghijklmnopqrstuvwxyz";
        let mut keys = Vec::new();
        for shared in 0..=20 {
            for extra in 0..=12 {
                let mut k = base[..shared].to_string();
                k.extend(std::iter::repeat_n('~', extra));
                keys.push(k);
            }
        }
        keys.sort();
        keys.dedup();
        let recs: Vec<(String, String)> = keys.iter().map(|k| (k.clone(), k.len().to_string())).collect();
        let run = RecordRun::from_pairs(&recs);
        let back = RecordRun::from_body(body_of(&run), 0).unwrap();
        assert_eq!(back.to_pairs(), recs);
        // Any two of them, in either order: a run takes them exactly when
        // the first does not sort above the second (equal keys are one
        // group).
        for a in &keys {
            for b in &keys {
                let decoded = RecordRun::from_body(pairs_body(&pairs(&[(a, ""), (b, "")])), 0);
                assert_eq!(decoded.is_ok(), a <= b, "{a:?} then {b:?}: {decoded:?}");
            }
        }
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

