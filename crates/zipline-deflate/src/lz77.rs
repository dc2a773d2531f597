//! LZ77 matching with hash chains.
//!
//! Produces the literal / (length, distance) token stream that the DEFLATE
//! block encoders consume. The matcher follows the classic zlib structure:
//! a hash of the next three bytes indexes a chain of previous positions, the
//! chain is searched up to a configurable depth, and an optional "lazy"
//! evaluation defers emitting a match by one byte when the next position
//! offers a longer one.
//!
//! # How the search is made cheap
//!
//! * **Reject first.** A candidate can only beat the best match so far if
//!   it agrees with the input at offset `best_len`; that one byte is
//!   compared before anything is measured, and most of a chain fails it.
//! * **Measure by words.** Survivors are measured eight bytes at a time
//!   (XOR, then `trailing_zeros` of the first difference).
//! * **No per-call tables.** [`Matcher`] keeps the hash heads and chain
//!   links as `u32`s and is reused across inputs without being cleared.
//!
//! **Bit-identity contract.** None of this changes which candidates are
//! visited, in which order, or which match wins: a rejected candidate is
//! one the full measurement would not have preferred, and the
//! `good_enough` / maximum-length exits fire only on an improving
//! candidate, as before. The token stream of an input under a
//! [`MatcherConfig`] is part of this crate's output format
//! (`tests/deflate_golden.rs` pins it through the compressed bytes).

use crate::tables::{MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

/// One element of the token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference of `length` bytes starting `distance` bytes back.
    Match {
        /// Match length in bytes (3..=258).
        length: u16,
        /// Match distance in bytes (1..=32768).
        distance: u16,
    },
}

/// Matcher tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherConfig {
    /// Maximum number of chain positions examined per match attempt.
    pub max_chain: usize,
    /// Stop searching as soon as a match of at least this length is found.
    pub good_enough: usize,
    /// Enable lazy matching (defer a match if the next byte starts a longer
    /// one).
    pub lazy: bool,
}

impl MatcherConfig {
    /// Fast preset: shallow chains, greedy.
    pub fn fast() -> Self {
        Self {
            max_chain: 16,
            good_enough: 32,
            lazy: false,
        }
    }

    /// Default preset: a balance similar to zlib level 6.
    pub fn default_level() -> Self {
        Self {
            max_chain: 128,
            good_enough: 128,
            lazy: true,
        }
    }

    /// Best preset: deep chains, lazy.
    pub fn best() -> Self {
        Self {
            max_chain: 1024,
            good_enough: MAX_MATCH,
            lazy: true,
        }
    }
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const WINDOW_MASK: usize = WINDOW_SIZE - 1;
/// Where a fresh matcher's base starts: zeroed table entries then read as
/// more than a window behind position 0. The base stays a multiple of the
/// window size, so the low bits of a stored position are its `prev` slot.
const FRESH_BASE: u32 = 2 * WINDOW_SIZE as u32;

fn hash3(data: &[u8], pos: usize) -> usize {
    let v = (data[pos] as u32) | ((data[pos + 1] as u32) << 8) | ((data[pos + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `data[a..]` and `data[b..]` (`a < b`), capped at
/// `limit`, which must not reach past the end of `data` from `b`.
fn match_length(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let mut len = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(wx.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(wy.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && x[len] == y[len] {
        len += 1;
    }
    len
}

/// Reusable hash-chain state of the matcher.
///
/// A position `p` of the current input is stored as `base + p`: `head[h]`
/// is the latest position whose three bytes hash to `h`, `prev[p % 32768]`
/// the one before `p` on its chain. `base` moves past every input (in
/// whole windows), so whatever an entry holds, its distance from the
/// position being searched says whether it is a candidate: anything left
/// by an earlier input is further back than this input is long.
#[derive(Debug, Clone, Default)]
pub struct Matcher {
    head: Vec<u32>,
    prev: Vec<u32>,
    base: u32,
}

impl Matcher {
    /// Readies the tables for an input of `len` bytes.
    fn begin(&mut self, len: usize) {
        if self.head.is_empty() || len as u64 + self.base as u64 > u32::MAX as u64 {
            // First use, or the base would wrap onto entries still stored.
            self.head.clear();
            self.head.resize(HASH_SIZE, 0);
            self.base = FRESH_BASE;
        }
        if self.prev.len() < len.min(WINDOW_SIZE) {
            self.prev.resize(len.min(WINDOW_SIZE), 0);
        }
    }

    fn insert(&mut self, data: &[u8], pos: usize) {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            self.prev[pos & WINDOW_MASK] = self.head[h];
            self.head[h] = self.base.wrapping_add(pos as u32);
        }
    }

    /// Longest match for `data[pos..]` as `(length, distance)`.
    fn find_best(&self, data: &[u8], pos: usize, config: MatcherConfig) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let limit = MAX_MATCH.min(data.len() - pos);
        let here = self.base.wrapping_add(pos as u32);
        let max_distance = pos.min(WINDOW_SIZE);
        let mut entry = self.head[hash3(data, pos)];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        for _ in 0..config.max_chain {
            let distance = here.wrapping_sub(entry) as usize;
            if distance.wrapping_sub(1) >= max_distance {
                break;
            }
            let candidate = pos - distance;
            if data[candidate + best_len] == data[pos + best_len] {
                let len = match_length(data, candidate, pos, limit);
                if len > best_len {
                    best_len = len;
                    best_dist = distance;
                    if len >= config.good_enough || len == limit {
                        break;
                    }
                }
            }
            // `candidate & WINDOW_MASK`, without waiting for the subtractions.
            entry = self.prev[entry as usize & WINDOW_MASK];
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }

    /// Tokenizes `data` into literals and matches, appending to `tokens`.
    pub fn tokenize_into(&mut self, data: &[u8], config: MatcherConfig, tokens: &mut Vec<Token>) {
        self.begin(data.len());
        let mut pos = 0usize;
        while pos < data.len() {
            let Some((mut len, mut dist)) = self.find_best(data, pos, config) else {
                tokens.push(Token::Literal(data[pos]));
                self.insert(data, pos);
                pos += 1;
                continue;
            };
            self.insert(data, pos);
            // Lazy evaluation: if the next position has a strictly longer
            // match, emit the current byte as a literal instead.
            if config.lazy && pos + 1 < data.len() {
                if let Some((next_len, next_dist)) = self.find_best(data, pos + 1, config) {
                    if next_len > len {
                        tokens.push(Token::Literal(data[pos]));
                        pos += 1;
                        len = next_len;
                        dist = next_dist;
                    }
                }
            }
            tokens.push(Token::Match {
                length: len as u16,
                distance: dist as u16,
            });
            // Index the covered positions so later matches can refer to them
            // (a deferred match's own first position stays unindexed; the
            // token stream depends on it).
            for p in pos + 1..pos + len {
                self.insert(data, p);
            }
            pos += len;
        }
        // Saturates for an input that itself wrapped the base, which makes
        // the next `begin` start over.
        let windows = data.len().next_multiple_of(WINDOW_SIZE);
        self.base = self
            .base
            .saturating_add(u32::try_from(windows).unwrap_or(u32::MAX));
    }
}

/// Tokenizes `data` into literals and matches with a one-shot [`Matcher`].
pub fn tokenize(data: &[u8], config: MatcherConfig) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    Matcher::default().tokenize_into(data, config, &mut tokens);
    tokens
}

/// Expands a token stream back into bytes (the reference decoder used by
/// tests; the real decoder works from the bit stream in `inflate`).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { length, distance } => {
                let start = out.len() - distance as usize;
                for i in 0..length as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8], config: MatcherConfig) {
        let tokens = tokenize(data, config);
        assert_eq!(expand(&tokens), data);
    }

    /// The byte-at-a-time loop `match_length` replaced.
    fn bytewise_match_length(data: &[u8], a: usize, b: usize) -> usize {
        let limit = MAX_MATCH.min(data.len() - b);
        (0..limit)
            .take_while(|&i| data[a + i] == data[b + i])
            .count()
    }

    #[test]
    fn wordwise_match_length_equals_bytewise_at_every_alignment_and_tail() {
        // Two copies of a pattern `gap` apart, the second cut short or
        // broken at `common`, for every alignment of the first copy.
        let pattern: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
        for a in 0..9 {
            for gap in [1usize, 7, 8, 9, 300] {
                for common in (0..=40).chain([63, 64, 65, 255, 256, 257, 258, 259, 300]) {
                    for broken in [false, true] {
                        let mut data = vec![0xEEu8; a];
                        data.extend_from_slice(&pattern[..gap.min(pattern.len())]);
                        data.resize(a + gap, 0xDD);
                        let b = data.len();
                        for i in 0..common {
                            let byte = data[a + i];
                            data.push(byte);
                        }
                        if broken {
                            let byte = data[a + common];
                            data.push(!byte);
                            data.extend_from_slice(&[1, 2, 3]);
                        }
                        let limit = MAX_MATCH.min(data.len() - b);
                        let expected = bytewise_match_length(&data, a, b);
                        assert_eq!(expected, common.min(MAX_MATCH));
                        assert_eq!(
                            match_length(&data, a, b, limit),
                            expected,
                            "a {a} gap {gap} common {common} broken {broken}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_reused_matcher_tokenizes_like_a_fresh_one() {
        let inputs: Vec<Vec<u8>> = vec![
            b"abcabcabcabcabcabc".repeat(30),
            (0..5000u32).map(|i| (i * i % 7) as u8).collect(),
            Vec::new(),
            b"abcabcabcabcabcabc".repeat(30),
            (0..40_000u32)
                .map(|i| (i % 251) as u8 ^ (i % 7) as u8)
                .collect(),
            b"xy".to_vec(),
            (0..5000u32).map(|i| (i * i % 7) as u8).collect(),
        ];
        let mut matcher = Matcher::default();
        // Force the base across the wrap-and-reset path on the way.
        matcher.tokenize_into(b"warm-up", MatcherConfig::fast(), &mut Vec::new());
        matcher.base = 0u32.wrapping_sub(3 * WINDOW_SIZE as u32);
        for config in [
            MatcherConfig::fast(),
            MatcherConfig::default_level(),
            MatcherConfig::best(),
        ] {
            for data in &inputs {
                let mut tokens = Vec::new();
                matcher.tokenize_into(data, config, &mut tokens);
                assert_eq!(tokens, tokenize(data, config));
                assert_eq!(expand(&tokens), *data);
            }
        }
    }

    #[test]
    fn short_inputs_are_all_literals() {
        for data in [&b""[..], b"a", b"ab"] {
            let tokens = tokenize(data, MatcherConfig::default_level());
            assert_eq!(tokens.len(), data.len());
            assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        }
    }

    #[test]
    fn repeated_data_produces_matches() {
        let data = b"abcabcabcabcabcabc";
        let tokens = tokenize(data, MatcherConfig::default_level());
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(expand(&tokens), data);
        // The match distance for a period-3 repeat is 3.
        let first_match = tokens.iter().find_map(|t| match t {
            Token::Match { distance, .. } => Some(*distance),
            _ => None,
        });
        assert_eq!(first_match, Some(3));
    }

    #[test]
    fn run_of_identical_bytes_uses_overlapping_match() {
        let data = vec![0x41u8; 1000];
        let tokens = tokenize(&data, MatcherConfig::default_level());
        // 1 literal + a few long matches, far fewer tokens than bytes.
        assert!(tokens.len() < 20, "tokens: {}", tokens.len());
        assert_eq!(expand(&tokens), data);
        // Overlapping match: distance 1, lengths up to 258.
        assert!(tokens.iter().any(
            |t| matches!(t, Token::Match { distance: 1, length } if *length == MAX_MATCH as u16)
        ));
    }

    #[test]
    fn matches_never_exceed_window_or_max_length() {
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.push((i % 251) as u8);
            data.push((i % 7) as u8);
        }
        let tokens = tokenize(&data, MatcherConfig::fast());
        for t in &tokens {
            if let Token::Match { length, distance } = t {
                assert!((*length as usize) <= MAX_MATCH);
                assert!((*length as usize) >= MIN_MATCH);
                assert!((*distance as usize) <= WINDOW_SIZE);
                assert!(*distance >= 1);
            }
        }
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn all_presets_roundtrip_structured_data() {
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(format!("sensor-{} value={}\n", i % 50, i % 13).as_bytes());
        }
        for config in [
            MatcherConfig::fast(),
            MatcherConfig::default_level(),
            MatcherConfig::best(),
        ] {
            roundtrip(&data, config);
        }
    }

    #[test]
    fn lazy_matching_never_hurts_correctness() {
        let data = b"abcdebcdefghibcdefghijklmnop".repeat(20);
        roundtrip(
            &data,
            MatcherConfig {
                max_chain: 64,
                good_enough: 258,
                lazy: true,
            },
        );
        roundtrip(
            &data,
            MatcherConfig {
                max_chain: 64,
                good_enough: 258,
                lazy: false,
            },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn arbitrary_data_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
            roundtrip(&data, MatcherConfig::default_level());
        }

        #[test]
        fn low_entropy_data_roundtrips_and_compresses(
            pattern in proptest::collection::vec(any::<u8>(), 1..20),
            repeats in 10usize..200,
        ) {
            let data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * repeats).collect();
            let tokens = tokenize(&data, MatcherConfig::default_level());
            prop_assert_eq!(expand(&tokens), data.clone());
            // Repetitive input must yield fewer tokens than bytes.
            prop_assert!(tokens.len() < data.len());
        }
    }
}
