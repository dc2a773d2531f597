//! Canonical Huffman coding.
//!
//! DEFLATE transmits only the *lengths* of the Huffman codes; both sides then
//! derive the canonical codes (RFC 1951 §3.2.2). The encoder side also needs
//! to choose lengths from symbol frequencies under a maximum-length
//! constraint (15 bits for literal/length and distance codes, 7 bits for the
//! code-length code); [`build_code_lengths`] implements the package-merge
//! algorithm (Larmore–Hirschberg), which produces optimal length-limited
//! codes.
//!
//! # Package-merge over weights only
//!
//! Level 1 is the *coins*: the active symbols, stably sorted by frequency.
//! Every further level is the stable merge of the coins with the *packages*
//! of the level below (the sums of its adjacent pairs), coins first on
//! equal weight. A symbol's code length is the number of times it occurs in
//! the first `2(n - 1)` items of the top level, packages expanded.
//!
//! No item has to remember its symbols: a prefix of a level is a prefix of
//! the coins plus a prefix of the packages (the merge keeps both in order),
//! and the first `p` packages are the first `2p` items of the level below.
//! The selection is therefore a prefix on every level, and walking down
//! from the top needs, per level, only how many selected items are coins —
//! that many of the cheapest symbols gain one bit. `O(n · max_bits)`.
//!
//! **Bit-identity contract.** Among equally cheap length assignments the
//! tie rule (coins before packages, symbols in index order) picks one, and
//! the compressed bytes depend on which. The tests hold this against the
//! symbol-multiset formulation it replaced on tables full of ties and
//! zeros; `tests/deflate_golden.rs` pins the bytes.

use crate::bitstream::{reverse_bits, BitReader, BitWriter};
use crate::error::{DeflateError, Result};

/// Builds optimal length-limited code lengths from symbol frequencies using
/// the package-merge algorithm (see the module docs).
///
/// Symbols with zero frequency receive length 0 (they are not part of the
/// code). If only one symbol has a non-zero frequency it receives length 1,
/// as DEFLATE cannot express a zero-bit code.
pub fn build_code_lengths(freqs: &[u64], max_bits: u32) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    // (weight, symbol), stably sorted by weight: level 1 of the merge.
    let mut coins: Vec<(u64, usize)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(symbol, &f)| (f, symbol))
        .collect();
    let n = coins.len();
    match n {
        0 => return lengths,
        1 => {
            lengths[coins[0].1] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1u64 << max_bits) >= n as u64,
        "cannot fit {n} symbols into {max_bits}-bit codes"
    );
    coins.sort_by_key(|&(weight, _)| weight);

    // Levels 2..=max_bits. Only the newest level's weights are kept; of
    // every level, which items are packages (`level_ends[i]` closes level
    // `i + 2` in `is_package`).
    let mut below: Vec<u64> = coins.iter().map(|&(weight, _)| weight).collect();
    let mut level: Vec<u64> = Vec::with_capacity(2 * n);
    let mut is_package: Vec<bool> = Vec::with_capacity(2 * n * max_bits as usize);
    let mut level_ends: Vec<usize> = Vec::with_capacity(max_bits as usize);
    for _ in 1..max_bits {
        level.clear();
        let mut coin = 0;
        for pair in below.chunks_exact(2) {
            let package = pair[0] + pair[1];
            while coin < n && coins[coin].0 <= package {
                level.push(coins[coin].0);
                is_package.push(false);
                coin += 1;
            }
            level.push(package);
            is_package.push(true);
        }
        level.extend(coins[coin..].iter().map(|&(weight, _)| weight));
        is_package.resize(is_package.len() + (n - coin), false);
        level_ends.push(is_package.len());
        std::mem::swap(&mut below, &mut level);
    }

    // Walk down from the top level: of the `take` cheapest items, the coins
    // give their symbols one bit each and the packages select twice their
    // number on the level below.
    let mut take = 2 * (n - 1);
    for i in (0..level_ends.len()).rev() {
        let start = if i == 0 { 0 } else { level_ends[i - 1] };
        let flags = &is_package[start..level_ends[i]];
        take = take.min(flags.len());
        let packages = flags[..take].iter().filter(|&&package| package).count();
        for &(_, symbol) in &coins[..take - packages] {
            lengths[symbol] += 1;
        }
        take = 2 * packages;
    }
    for &(_, symbol) in &coins[..take.min(n)] {
        lengths[symbol] += 1;
    }
    lengths
}

/// Canonical Huffman encoder: maps symbols to `(code, length)` pairs.
///
/// Codes are stored bit-reversed, ready for the LSB-first
/// [`BitWriter::write_bits`].
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    reversed: Vec<u32>,
    lengths: Vec<u8>,
}

impl HuffmanEncoder {
    /// Builds the canonical codes for the given lengths.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self> {
        let mut reversed = assign_canonical_codes(lengths)?;
        for (code, &len) in reversed.iter_mut().zip(lengths) {
            *code = reverse_bits(*code, len as u32);
        }
        Ok(Self {
            reversed,
            lengths: lengths.to_vec(),
        })
    }

    /// Convenience: build lengths from frequencies, then the encoder.
    pub fn from_frequencies(freqs: &[u64], max_bits: u32) -> Result<Self> {
        Self::from_lengths(&build_code_lengths(freqs, max_bits))
    }

    /// The code lengths this encoder was built from.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Length in bits of a symbol's code (0 when the symbol is not coded).
    pub fn length(&self, symbol: usize) -> u8 {
        self.lengths[symbol]
    }

    /// Writes the code for `symbol` into the bit stream. The symbol must
    /// have a code: callers build the encoder from the histogram of the
    /// very symbols they then write.
    pub fn write(&self, writer: &mut BitWriter, symbol: usize) {
        let len = self.lengths[symbol];
        debug_assert!(len != 0, "symbol {symbol} has no code");
        writer.write_bits(self.reversed[symbol], len as u32);
    }
}

/// Canonical Huffman decoder.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// `count[len]` = number of codes with that length.
    count: Vec<u32>,
    /// First canonical code of each length.
    first_code: Vec<u32>,
    /// Index into `symbols` of the first symbol of each length.
    first_index: Vec<u32>,
    /// Symbols sorted by (length, symbol value).
    symbols: Vec<u16>,
    max_len: usize,
}

impl HuffmanDecoder {
    /// Builds a decoder from code lengths. Rejects over-subscribed codes;
    /// accepts incomplete ones (DEFLATE streams may use a single distance
    /// code of length 1).
    pub fn from_lengths(lengths: &[u8]) -> Result<Self> {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        if max_len == 0 {
            // A degenerate decoder with no symbols; decoding will fail.
            return Ok(Self {
                count: vec![0; 1],
                first_code: vec![0; 1],
                first_index: vec![0; 1],
                symbols: Vec::new(),
                max_len: 0,
            });
        }
        let mut count = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft check: must not be over-subscribed.
        let mut remaining = 1u64;
        for &count_at_len in count.iter().skip(1) {
            remaining <<= 1;
            let c = count_at_len as u64;
            if c > remaining {
                return Err(DeflateError::Corrupt("over-subscribed Huffman code".into()));
            }
            remaining -= c;
        }

        let mut first_code = vec![0u32; max_len + 1];
        let mut first_index = vec![0u32; max_len + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max_len {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }

        let mut symbols: Vec<(u8, u16)> = lengths
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (l, s as u16))
            .collect();
        symbols.sort_unstable();
        let symbols = symbols.into_iter().map(|(_, s)| s).collect();

        Ok(Self {
            count,
            first_code,
            first_index,
            symbols,
            max_len,
        })
    }

    /// Decodes one symbol from the bit stream.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16> {
        if self.max_len == 0 {
            return Err(DeflateError::Corrupt(
                "decoding with an empty Huffman code".into(),
            ));
        }
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1) | reader.read_bit()?;
            let cnt = self.count[len];
            if cnt > 0 && code >= self.first_code[len] && code < self.first_code[len] + cnt {
                let idx = self.first_index[len] + (code - self.first_code[len]);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(DeflateError::Corrupt(
            "invalid Huffman code in stream".into(),
        ))
    }
}

/// Assigns canonical codes to lengths (RFC 1951 §3.2.2).
fn assign_canonical_codes(lengths: &[u8]) -> Result<Vec<u32>> {
    let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u32; max_len + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    // Over-subscription check mirrors the decoder's.
    let mut remaining = 1u64;
    for &count_at_len in bl_count.iter().skip(1) {
        remaining <<= 1;
        let c = count_at_len as u64;
        if c > remaining {
            return Err(DeflateError::Corrupt("over-subscribed Huffman code".into()));
        }
        remaining -= c;
    }
    let mut next_code = vec![0u32; max_len + 2];
    let mut code = 0u32;
    for len in 1..=max_len {
        code = (code + bl_count[len - 1]) << 1;
        next_code[len] = code;
    }
    let mut codes = vec![0u32; lengths.len()];
    for (symbol, &len) in lengths.iter().enumerate() {
        if len > 0 {
            codes[symbol] = next_code[len as usize];
            next_code[len as usize] += 1;
        }
    }
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The formulation [`build_code_lengths`] replaced, kept as the
    /// reference for its tie-breaking: every item carries the multiset of
    /// symbols it is made of, and each level is a stable sort of the coins
    /// followed by the packages.
    fn multiset_package_merge(freqs: &[u64], max_bits: u32) -> Vec<u8> {
        let active: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let mut lengths = vec![0u8; freqs.len()];
        if active.len() < 2 {
            active.iter().for_each(|&s| lengths[s] = 1);
            return lengths;
        }
        type Item = (u64, Vec<usize>);
        let mut coins: Vec<Item> = active.iter().map(|&s| (freqs[s], vec![s])).collect();
        coins.sort_by_key(|(w, _)| *w);
        let mut merged = coins.clone();
        for _ in 1..max_bits {
            let packages: Vec<Item> = merged
                .chunks_exact(2)
                .map(|pair| {
                    (
                        pair[0].0 + pair[1].0,
                        [&pair[0].1[..], &pair[1].1[..]].concat(),
                    )
                })
                .collect();
            merged = coins.clone();
            merged.extend(packages);
            merged.sort_by_key(|(w, _)| *w);
        }
        for (_, symbols) in merged.iter().take(2 * (active.len() - 1)) {
            for &s in symbols {
                lengths[s] += 1;
            }
        }
        lengths
    }

    #[test]
    fn weight_only_merge_matches_the_multiset_merge_on_edge_tables() {
        let mut tables: Vec<Vec<u64>> = vec![
            vec![1; 286],
            vec![1; 128],
            vec![7; 19],
            (0..286).map(|i| 1 << (i % 3)).collect(),
            (0..286)
                .map(|i| if i % 5 == 0 { 0 } else { 1 + i % 2 })
                .collect(),
            (1..=30).collect(),
            (0..40).map(|i| 1u64 << i).collect(),
            vec![
                1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
            ],
            vec![5, 5],
            vec![0, 9, 0, 9, 0, 9],
        ];
        for n in 2..=19 {
            tables.push(vec![3; n]);
            tables.push((0..n as u64).map(|i| 1 + i / 2).collect());
        }
        for freqs in &tables {
            for max_bits in [7u32, 15] {
                let active = freqs.iter().filter(|&&f| f > 0).count() as u64;
                if active <= 1 << max_bits {
                    assert_eq!(
                        build_code_lengths(freqs, max_bits),
                        multiset_package_merge(freqs, max_bits),
                        "max_bits {max_bits}, freqs {freqs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rfc_example_canonical_codes() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) produce codes
        // 010,011,100,101,110,00,1110,1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
        let expected = [0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111];
        for (sym, &code) in expected.iter().enumerate() {
            let canonical = reverse_bits(enc.reversed[sym], lengths[sym] as u32);
            assert_eq!(canonical, code, "symbol {sym}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_rfc_example() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        let symbols = [0usize, 5, 7, 3, 6, 1, 2, 4, 5, 5, 0];
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.write(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn build_code_lengths_simple_cases() {
        // No active symbols.
        assert_eq!(build_code_lengths(&[0, 0, 0], 15), vec![0, 0, 0]);
        // One active symbol gets length 1.
        assert_eq!(build_code_lengths(&[0, 7, 0], 15), vec![0, 1, 0]);
        // Two symbols get one bit each.
        assert_eq!(build_code_lengths(&[3, 9], 15), vec![1, 1]);
        // Classic skewed distribution.
        let lengths = build_code_lengths(&[45, 13, 12, 16, 9, 5], 15);
        // Kraft equality for a complete optimal code.
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-9, "lengths {lengths:?}");
        // The most frequent symbol has the shortest code.
        assert!(lengths[0] <= lengths[4]);
        assert!(lengths[0] <= lengths[5]);
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-like frequencies force long codes in unlimited Huffman;
        // the limited version must cap them.
        let freqs: Vec<u64> = vec![
            1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
        ];
        for max_bits in [5u32, 7, 15] {
            let lengths = build_code_lengths(&freqs, max_bits);
            assert!(
                lengths.iter().all(|&l| (l as u32) <= max_bits),
                "max_bits {max_bits}"
            );
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            assert!(
                kraft <= 1.0 + 1e-9,
                "Kraft violated for max_bits {max_bits}"
            );
        }
    }

    #[test]
    fn oversubscribed_codes_are_rejected() {
        // Three codes of length 1 cannot exist.
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(HuffmanEncoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn incomplete_codes_are_accepted_by_the_decoder() {
        // A single code of length 1 (used for single-distance streams).
        let dec = HuffmanDecoder::from_lengths(&[1, 0, 0]).unwrap();
        let mut w = BitWriter::new();
        let enc = HuffmanEncoder::from_lengths(&[1, 0, 0]).unwrap();
        enc.write(&mut w, 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 0);
    }

    #[test]
    fn writing_an_uncoded_symbol_fails() {
        // An uncoded symbol is an encoder bug (lengths come from the
        // histogram of the symbols written), caught where assertions are on.
        let enc = HuffmanEncoder::from_lengths(&[1, 1, 0]).unwrap();
        assert_eq!(enc.length(2), 0);
        assert_eq!(enc.lengths().len(), 3);
        if cfg!(debug_assertions) {
            let attempt = std::panic::catch_unwind(|| enc.write(&mut BitWriter::new(), 2));
            assert!(attempt.is_err());
        }
    }

    #[test]
    fn empty_decoder_errors_on_decode() {
        let dec = HuffmanDecoder::from_lengths(&[0, 0]).unwrap();
        let mut r = BitReader::new(&[0xFF]);
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn invalid_code_in_stream_is_detected() {
        // Incomplete code: only "0" is valid; a stream of all 1s never
        // resolves to a symbol.
        let dec = HuffmanDecoder::from_lengths(&[1, 0]).unwrap();
        let mut r = BitReader::new(&[0xFF, 0xFF]);
        assert!(dec.decode(&mut r).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_frequency_tables_roundtrip(freqs in proptest::collection::vec(0u64..1000, 2..60)) {
            let lengths = build_code_lengths(&freqs, 15);
            prop_assume!(lengths.iter().any(|&l| l > 0));
            let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
            let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
            // Encode every active symbol a few times.
            let active: Vec<usize> =
                lengths.iter().enumerate().filter(|(_, &l)| l > 0).map(|(s, _)| s).collect();
            let mut w = BitWriter::new();
            for &s in active.iter().cycle().take(200) {
                enc.write(&mut w, s);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &s in active.iter().cycle().take(200) {
                prop_assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
            }
        }

        /// Ties are the only place where equal *cost* is not equal
        /// *lengths*: frequencies from a tiny range, many of them zero.
        #[test]
        fn weight_only_merge_matches_the_multiset_merge(
            freqs in proptest::collection::vec(0u64..4, 2..=286),
            spread in proptest::collection::vec(0u64..1000, 2..=286),
            wide in any::<bool>(),
        ) {
            let freqs = if wide { spread } else { freqs };
            let active = freqs.iter().filter(|&&f| f > 0).count();
            for max_bits in [7u32, 15] {
                if active <= 1 << max_bits {
                    prop_assert_eq!(
                        build_code_lengths(&freqs, max_bits),
                        multiset_package_merge(&freqs, max_bits)
                    );
                }
            }
        }

        #[test]
        fn package_merge_respects_kraft_inequality(freqs in proptest::collection::vec(0u64..500, 2..40)) {
            let lengths = build_code_lengths(&freqs, 15);
            let kraft: f64 =
                lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
            prop_assert!(kraft <= 1.0 + 1e-9);
            // Zero-frequency symbols never get a code.
            for (i, &f) in freqs.iter().enumerate() {
                if f == 0 {
                    prop_assert_eq!(lengths[i], 0);
                }
            }
        }
    }
}
