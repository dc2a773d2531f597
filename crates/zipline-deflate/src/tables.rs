//! Fixed tables from RFC 1951: length/distance code mappings and the fixed
//! Huffman code.
//!
//! The encoder maps a match length or distance to its symbol by table
//! lookup ([`length_to_symbol`], [`distance_to_symbol`]); the tables are
//! derived from [`LENGTH_CODES`] and [`DIST_CODES`] at compile time. The
//! fixed Huffman code is built once per process ([`fixed_codes`]) and shared
//! by the block writer and the decoder.

use std::sync::OnceLock;

use crate::huffman::{HuffmanDecoder, HuffmanEncoder};

/// Number of literal/length symbols (0–285).
pub const NUM_LITLEN_SYMBOLS: usize = 286;
/// Number of distance symbols (0–29).
pub const NUM_DIST_SYMBOLS: usize = 30;
/// Number of code-length-code symbols (0–18).
pub const NUM_CLC_SYMBOLS: usize = 19;
/// End-of-block symbol.
pub const END_OF_BLOCK: u16 = 256;
/// Maximum bits in a literal/length or distance Huffman code.
pub const MAX_CODE_BITS: u32 = 15;
/// Maximum bits in a code-length-code Huffman code.
pub const MAX_CLC_BITS: u32 = 7;
/// Minimum/maximum match lengths representable by DEFLATE.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;
/// Size of the LZ77 window.
pub const WINDOW_SIZE: usize = 32 * 1024;

/// Order in which code-length-code lengths are transmitted (RFC 1951 §3.2.7).
pub const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// `(base length, extra bits)` for length codes 257..=285.
pub const LENGTH_CODES: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base distance, extra bits)` for distance codes 0..=29.
pub const DIST_CODES: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Index of the last entry of `codes` whose base is not above `value`.
const fn code_index(codes: &[(u16, u8)], value: usize) -> u8 {
    let mut idx = 0;
    while idx + 1 < codes.len() && codes[idx + 1].0 as usize <= value {
        idx += 1;
    }
    idx as u8
}

/// [`LENGTH_CODES`] index of every match length (3..=258); 258 lands on
/// code 285 (0 extra bits), not on 284 + 31.
const LENGTH_INDEX: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut length = MIN_MATCH;
    while length <= MAX_MATCH {
        table[length] = code_index(&LENGTH_CODES, length);
        length += 1;
    }
    table
};

/// [`DIST_CODES`] index of every distance, zlib style: distances up to 256
/// index the first half by `distance - 1`; longer ones, whose codes all
/// carry at least 7 extra bits, the second half by `(distance - 1) >> 7`.
const DIST_INDEX: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut slot = 0;
    while slot < 512 {
        let distance = if slot < 256 { slot } else { (slot - 256) << 7 } + 1;
        table[slot] = code_index(&DIST_CODES, distance);
        slot += 1;
    }
    table
};

/// Maps a match length (3..=258) to `(symbol, extra bits, extra value)`.
pub fn length_to_symbol(length: usize) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&length));
    let idx = LENGTH_INDEX[length] as usize;
    let (base, extra_bits) = LENGTH_CODES[idx];
    (
        257 + idx as u16,
        extra_bits,
        (length - base as usize) as u16,
    )
}

/// Maps a distance (1..=32768) to `(symbol, extra bits, extra value)`.
pub fn distance_to_symbol(distance: usize) -> (u16, u8, u16) {
    debug_assert!((1..=WINDOW_SIZE).contains(&distance));
    let idx = if distance <= 256 {
        DIST_INDEX[distance - 1]
    } else {
        DIST_INDEX[256 + ((distance - 1) >> 7)]
    } as usize;
    let (base, extra_bits) = DIST_CODES[idx];
    (idx as u16, extra_bits, (distance - base as usize) as u16)
}

/// Base length and extra-bit count for a length symbol (257..=285).
pub fn symbol_to_length(symbol: u16) -> Option<(u16, u8)> {
    let idx = symbol.checked_sub(257)? as usize;
    LENGTH_CODES.get(idx).copied()
}

/// Base distance and extra-bit count for a distance symbol (0..=29).
pub fn symbol_to_distance(symbol: u16) -> Option<(u16, u8)> {
    DIST_CODES.get(symbol as usize).copied()
}

/// Code lengths of the fixed literal/length Huffman code (RFC 1951 §3.2.6).
pub fn fixed_litlen_lengths() -> Vec<u8> {
    let mut lengths = vec![0u8; NUM_LITLEN_SYMBOLS + 2]; // 288 codes defined
    for (i, len) in lengths.iter_mut().enumerate() {
        *len = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lengths
}

/// Code lengths of the fixed distance Huffman code: 5 bits for all 30 codes
/// (and the two reserved ones).
pub fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 32]
}

/// The fixed Huffman code of RFC 1951 §3.2.6, both directions.
#[derive(Debug)]
pub struct FixedCodes {
    /// Literal/length encoder.
    pub litlen: HuffmanEncoder,
    /// Distance encoder.
    pub dist: HuffmanEncoder,
    /// Literal/length decoder.
    pub litlen_decoder: HuffmanDecoder,
    /// Distance decoder.
    pub dist_decoder: HuffmanDecoder,
}

/// The fixed Huffman code, built on first use and shared from then on.
pub fn fixed_codes() -> &'static FixedCodes {
    static FIXED: OnceLock<FixedCodes> = OnceLock::new();
    FIXED.get_or_init(|| {
        let (litlen, dist) = (fixed_litlen_lengths(), fixed_dist_lengths());
        FixedCodes {
            litlen: HuffmanEncoder::from_lengths(&litlen).expect("fixed code is valid"),
            dist: HuffmanEncoder::from_lengths(&dist).expect("fixed code is valid"),
            litlen_decoder: HuffmanDecoder::from_lengths(&litlen).expect("fixed code is valid"),
            dist_decoder: HuffmanDecoder::from_lengths(&dist).expect("fixed code is valid"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear searches the lookup tables replaced.
    fn searched(codes: &[(u16, u8)], value: usize) -> usize {
        codes
            .iter()
            .rposition(|&(base, _)| base as usize <= value)
            .expect("value is at least the first base")
    }

    #[test]
    fn lookup_tables_match_a_search_of_the_code_tables() {
        for length in MIN_MATCH..=MAX_MATCH {
            let expected = searched(&LENGTH_CODES, length);
            assert_eq!(length_to_symbol(length).0 as usize, 257 + expected);
        }
        for distance in 1..=WINDOW_SIZE {
            let expected = searched(&DIST_CODES, distance);
            assert_eq!(distance_to_symbol(distance).0 as usize, expected);
        }
    }

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_to_symbol(3), (257, 0, 0));
        assert_eq!(length_to_symbol(4), (258, 0, 0));
        assert_eq!(length_to_symbol(10), (264, 0, 0));
        assert_eq!(length_to_symbol(11), (265, 1, 0));
        assert_eq!(length_to_symbol(12), (265, 1, 1));
        assert_eq!(length_to_symbol(13), (266, 1, 0));
        assert_eq!(length_to_symbol(257), (284, 5, 30));
        assert_eq!(length_to_symbol(258), (285, 0, 0));
    }

    #[test]
    fn distance_symbol_boundaries() {
        assert_eq!(distance_to_symbol(1), (0, 0, 0));
        assert_eq!(distance_to_symbol(4), (3, 0, 0));
        assert_eq!(distance_to_symbol(5), (4, 1, 0));
        assert_eq!(distance_to_symbol(6), (4, 1, 1));
        assert_eq!(distance_to_symbol(7), (5, 1, 0));
        assert_eq!(distance_to_symbol(24577), (29, 13, 0));
        assert_eq!(distance_to_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn every_length_roundtrips_through_its_symbol() {
        for length in MIN_MATCH..=MAX_MATCH {
            let (symbol, extra_bits, extra) = length_to_symbol(length);
            let (base, eb) = symbol_to_length(symbol).unwrap();
            assert_eq!(eb, extra_bits);
            assert_eq!(base as usize + extra as usize, length, "length {length}");
            assert!(extra < (1 << extra_bits) || extra_bits == 0);
        }
    }

    #[test]
    fn every_distance_roundtrips_through_its_symbol() {
        for distance in 1..=WINDOW_SIZE {
            let (symbol, extra_bits, extra) = distance_to_symbol(distance);
            let (base, eb) = symbol_to_distance(symbol).unwrap();
            assert_eq!(eb, extra_bits);
            assert_eq!(
                base as usize + extra as usize,
                distance,
                "distance {distance}"
            );
        }
    }

    #[test]
    fn symbol_lookup_rejects_out_of_range() {
        assert!(symbol_to_length(256).is_none());
        assert!(symbol_to_length(286).is_none());
        assert!(symbol_to_distance(30).is_none());
    }

    #[test]
    fn fixed_code_lengths_match_rfc() {
        let litlen = fixed_litlen_lengths();
        assert_eq!(litlen.len(), 288);
        assert_eq!(litlen[0], 8);
        assert_eq!(litlen[143], 8);
        assert_eq!(litlen[144], 9);
        assert_eq!(litlen[255], 9);
        assert_eq!(litlen[256], 7);
        assert_eq!(litlen[279], 7);
        assert_eq!(litlen[280], 8);
        assert_eq!(litlen[287], 8);
        assert_eq!(fixed_dist_lengths(), vec![5u8; 32]);
    }

    #[test]
    fn clc_order_is_a_permutation() {
        let mut sorted = CLC_ORDER;
        sorted.sort_unstable();
        let expected: Vec<usize> = (0..19).collect();
        assert_eq!(sorted.to_vec(), expected);
    }
}
