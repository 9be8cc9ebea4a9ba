//! Whitespace tokenizing for the text apps, exact to
//! [`str::split_whitespace`] at a fraction of its per-byte cost.
//!
//! `split_whitespace` decodes every character to test it against
//! Unicode's `White_Space`. Below 0x80 that set is six bytes: 0x09–0x0D
//! (vertical tab included, unlike [`u8::is_ascii_whitespace`]) and
//! 0x20. An ASCII byte is never part of a multi-byte character, so
//! splitting at those bytes first cuts no character in two; only a
//! token holding a byte ≥ 0x80 can still contain a Unicode separator
//! (U+0085, U+00A0, U+3000, ...), and only such a token is handed to
//! `split_whitespace`. A block that is all ASCII has none.

/// Every byte of a `u64` set to one.
const ONES: u64 = 0x0101_0101_0101_0101;
/// The top bit of every byte of a `u64`.
const HIGH: u64 = 0x8080_8080_8080_8080;
/// The bytes below 0x80 that `char::is_whitespace` accepts, as a bit
/// set: 0x09–0x0D and 0x20.
const SEPARATORS: u64 = 0x3e00 | (1 << 0x20);

/// Call `word` with each whitespace-separated word of `text`, in order:
/// the same words, borrowed from `text`, as `text.split_whitespace()`
/// yields.
///
/// Eight bytes at a time, one 64-bit subtraction marks every ASCII
/// byte at or below 0x20; only those few candidates are tested against
/// the six separators.
pub(crate) fn for_each_word<'a>(text: &'a str, mut word: impl FnMut(&'a str)) {
    // One pass says whether any token can hold a Unicode separator.
    let ascii = text.is_ascii();
    let mut start = 0;
    let mut cut = |end: usize| {
        if start < end {
            let t = &text[start..end];
            if ascii || t.is_ascii() {
                word(t);
            } else {
                t.split_whitespace().for_each(&mut word);
            }
        }
        start = end + 1;
    };
    let bytes = text.as_bytes();
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // Each byte's top bit survives `(b | 0x80) - 0x21` exactly when
        // its low seven bits are >= 0x21; no byte borrows from the next,
        // as each is >= 0x80 before the subtraction. `!x` then drops the
        // bytes >= 0x80, which are never separators.
        let mut low = !((x | HIGH) - 0x21 * ONES) & !x & HIGH;
        while low != 0 {
            let i = at + (low.trailing_zeros() / 8) as usize;
            low &= low - 1;
            if is_separator(bytes[i]) {
                cut(i);
            }
        }
        at += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if is_separator(b) {
            cut(at + i);
        }
    }
    cut(text.len());
}

/// `b` is one of the six ASCII bytes `char::is_whitespace` accepts.
#[inline]
fn is_separator(b: u8) -> bool {
    b <= 0x20 && (SEPARATORS >> b) & 1 == 1
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn words(text: &str) -> Vec<&str> {
        let mut out = Vec::new();
        for_each_word(text, |w| out.push(w));
        out
    }

    #[test]
    fn splits_like_split_whitespace_on_fixed_inputs() {
        let cases = [
            "",
            " ",
            "one",
            "  lead and trail  ",
            "vt\u{b}splits ff\u{c}too",
            "fs\u{1c}joins",
            "nbsp\u{a0}nel\u{85}ogham\u{1680}ideo\u{3000}end",
            "crlf\r\nline\ttab",
            "\u{e9}t\u{e9} caf\u{e9}",
        ];
        for text in cases {
            assert_eq!(words(text), text.split_whitespace().collect::<Vec<_>>(), "{text:?}");
        }
        assert_eq!(words("a\u{b}b"), ["a", "b"], "vertical tab separates");
        assert_eq!(words("a\u{1c}b"), ["a\u{1c}b"], "U+001C does not");
    }

    /// Pieces a block is drawn from: ASCII and non-ASCII letters, every
    /// separator class (ASCII, vertical tab, Unicode-only), characters
    /// that look like separators but are not, and invalid UTF-8.
    const PIECES: &[&[u8]] = &[
        b"a",
        b"Zq",
        "\u{e9}".as_bytes(),
        b" ",
        b"   ",
        b"\t",
        b"\r\n",
        b"\n",
        b"\x0b",
        b"\x0c",
        b"\x1c",
        b"\x1f",
        "\u{85}".as_bytes(),
        "\u{a0}".as_bytes(),
        "\u{1680}".as_bytes(),
        "\u{2028}".as_bytes(),
        "\u{3000}".as_bytes(),
        "\u{200b}".as_bytes(),
        b"\xff",
        b"\xc3",
        b"\xe2\x82",
        b"\xc2",
        b"\x80",
    ];

    /// A byte block of [`PIECES`] in any order and number.
    pub(crate) fn arb_block() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0usize..PIECES.len(), 0..48)
            .prop_map(|picks| picks.iter().flat_map(|&i| PIECES[i].iter().copied()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On any byte block, invalid UTF-8 included, the words of its
        /// lossy decoding are `split_whitespace`'s.
        #[test]
        fn words_equal_split_whitespace_of_the_lossy_text(block in arb_block()) {
            let text = String::from_utf8_lossy(&block);
            prop_assert_eq!(words(&text), text.split_whitespace().collect::<Vec<_>>());
        }
    }
}
