//! Mutations of valid text, for the property suites of the parsers of
//! external input: a byte flipped, the text truncated, a separator of a
//! format inserted, a `\r` or a NUL inserted, a byte deleted, a span
//! duplicated.

use proptest::prelude::*;

/// Separators of the formats under test: the chunk and manifest framing,
/// the shard spec's slash, CSV, and JSON's structural bytes.
const SEPARATORS: [&str; 12] = [
    "\n", "---\n", " = ", "/", ",", ":", "{", "}", "[", "]", "\"", "\\",
];

/// One mutation, drawn as `(kind, position, value)`: the position is taken
/// modulo the text's length plus one, and the value picks the bit, the
/// separator or the span.
pub type Mutation = (u64, usize, u64);

/// Up to three mutations; a quarter of the texts stay valid.
pub fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0u64..7, 0usize..usize::MAX, 0u64..u64::MAX), 0..4)
}

/// Applies `mutations` to `text`, byte by byte; bytes that no longer form
/// UTF-8 become U+FFFD, as a `&str` parser's caller would have to make them.
pub fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, position, value) in mutations {
        let at = position % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] ^= 1 << (value % 8),
            1 => bytes.truncate(at),
            2 => {
                let separator = SEPARATORS[value as usize % SEPARATORS.len()];
                bytes.splice(at..at, separator.bytes());
            }
            3 => bytes.insert(at, b'\r'),
            4 => bytes.insert(at, 0),
            5 if at < bytes.len() => {
                bytes.remove(at);
            }
            6 => {
                // Duplicates a span, as a retried write might.
                let end = (at + 1 + value as usize % 32).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
