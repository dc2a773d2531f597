//! DEFLATE block encoding (RFC 1951).
//!
//! [`DeflateEncoder`] owns what an encoding needs beyond its input — the
//! matcher's hash chains and the token buffer — so a caller that compresses
//! many members (the engine backends) pays for them once;
//! [`deflate_compress_into`] is the same code over a throw-away encoder.
//!
//! A block is written from tables: symbols come from the lookup tables of
//! [`crate::tables`], codes are stored ready to write, and both the fixed
//! and the dynamic cost of a block are computed from its two symbol
//! histograms before either is committed to.

use crate::bitstream::BitWriter;
use crate::huffman::{build_code_lengths, HuffmanEncoder};
use crate::lz77::{Matcher, MatcherConfig, Token};
use crate::tables::{
    distance_to_symbol, fixed_codes, length_to_symbol, CLC_ORDER, DIST_CODES, END_OF_BLOCK,
    LENGTH_CODES, MAX_CLC_BITS, MAX_CODE_BITS, NUM_CLC_SYMBOLS, NUM_DIST_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
};

/// Compression level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// No compression: stored blocks only.
    Store,
    /// Shallow match search, fixed Huffman codes.
    Fast,
    /// zlib-level-6-like: lazy matching, dynamic Huffman codes.
    #[default]
    Default,
    /// Deep match search, dynamic Huffman codes.
    Best,
}

impl Level {
    fn matcher(&self) -> MatcherConfig {
        match self {
            Level::Store => MatcherConfig::fast(), // unused
            Level::Fast => MatcherConfig::fast(),
            Level::Default => MatcherConfig::default_level(),
            Level::Best => MatcherConfig::best(),
        }
    }
}

/// Maximum number of tokens per compressed block: keeps the dynamic Huffman
/// statistics reasonably local, like zlib's block splitting.
const TOKENS_PER_BLOCK: usize = 100_000;
/// Maximum bytes in a stored block (16-bit length field).
const STORED_BLOCK_MAX: usize = 65_535;

/// Reusable encoder state: the matcher's tables and the token buffer,
/// allocated on first use.
///
/// The output is a function of `(data, level)` alone — an encoder that has
/// compressed anything before produces the same bytes as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct DeflateEncoder {
    matcher: Matcher,
    tokens: Vec<Token>,
}

impl DeflateEncoder {
    /// Appends `data` as a raw DEFLATE stream to `out`, reusing `out`'s
    /// allocation.
    pub fn deflate_into(&mut self, data: &[u8], level: Level, out: &mut Vec<u8>) {
        let mut writer = BitWriter::with_buffer(std::mem::take(out));
        match level {
            Level::Store => write_stored(&mut writer, data),
            _ => self.write_compressed(&mut writer, data, level),
        }
        *out = writer.into_bytes();
    }

    fn write_compressed(&mut self, writer: &mut BitWriter, data: &[u8], level: Level) {
        self.tokens.clear();
        self.matcher
            .tokenize_into(data, level.matcher(), &mut self.tokens);
        if self.tokens.is_empty() {
            // Empty input: emit one final fixed block containing only EOB.
            write_fixed_block(writer, &[], true);
            return;
        }
        let blocks = self.tokens.len().div_ceil(TOKENS_PER_BLOCK);
        for (i, block) in self.tokens.chunks(TOKENS_PER_BLOCK).enumerate() {
            let last = i == blocks - 1;
            match level {
                Level::Fast => write_fixed_block(writer, block, last),
                _ => write_best_block(writer, block, last),
            }
        }
    }
}

/// Compresses `data` into a raw DEFLATE stream.
pub fn deflate_compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::new();
    deflate_compress_into(data, level, &mut out);
    out
}

/// Streaming-friendly variant of [`deflate_compress`]: appends the DEFLATE
/// stream to `out`, reusing its allocation. One-shot: the encoder state is
/// built and dropped inside the call; a caller with many members to
/// compress keeps a [`DeflateEncoder`] instead.
pub fn deflate_compress_into(data: &[u8], level: Level, out: &mut Vec<u8>) {
    DeflateEncoder::default().deflate_into(data, level, out);
}

fn write_stored(writer: &mut BitWriter, data: &[u8]) {
    if data.is_empty() {
        writer.write_bits(1, 1); // BFINAL
        writer.write_bits(0b00, 2); // BTYPE = stored
        writer.align_to_byte();
        writer.write_bytes(&0u16.to_le_bytes());
        writer.write_bytes(&0xFFFFu16.to_le_bytes());
        return;
    }
    let blocks = data.len().div_ceil(STORED_BLOCK_MAX);
    for (i, chunk) in data.chunks(STORED_BLOCK_MAX).enumerate() {
        writer.write_bits((i == blocks - 1) as u32, 1);
        writer.write_bits(0b00, 2);
        writer.align_to_byte();
        let len = chunk.len() as u16;
        writer.write_bytes(&len.to_le_bytes());
        writer.write_bytes(&(!len).to_le_bytes());
        writer.write_bytes(chunk);
    }
}

/// Symbol frequency tables for one block (end-of-block included).
struct BlockStats {
    litlen_freqs: [u64; NUM_LITLEN_SYMBOLS],
    dist_freqs: [u64; NUM_DIST_SYMBOLS],
}

fn block_stats(tokens: &[Token]) -> BlockStats {
    let mut litlen_freqs = [0u64; NUM_LITLEN_SYMBOLS];
    let mut dist_freqs = [0u64; NUM_DIST_SYMBOLS];
    for token in tokens {
        match *token {
            Token::Literal(b) => litlen_freqs[b as usize] += 1,
            Token::Match { length, distance } => {
                litlen_freqs[length_to_symbol(length as usize).0 as usize] += 1;
                dist_freqs[distance_to_symbol(distance as usize).0 as usize] += 1;
            }
        }
    }
    litlen_freqs[END_OF_BLOCK as usize] += 1;
    BlockStats {
        litlen_freqs,
        dist_freqs,
    }
}

impl BlockStats {
    /// Cost in bits of the block's body (codes and extra bits, end-of-block
    /// included, no header) under the given code lengths.
    fn body_cost(&self, litlen_lengths: &[u8], dist_lengths: &[u8]) -> u64 {
        fn bits(freqs: &[u64], widths: impl Iterator<Item = u8>) -> u64 {
            freqs.iter().zip(widths).map(|(&f, w)| f * w as u64).sum()
        }
        let extra = |codes: &'static [(u16, u8)]| codes.iter().map(|&(_, extra)| extra);
        bits(&self.litlen_freqs, litlen_lengths.iter().copied())
            + bits(&self.litlen_freqs[257..], extra(&LENGTH_CODES))
            + bits(&self.dist_freqs, dist_lengths.iter().copied())
            + bits(&self.dist_freqs, extra(&DIST_CODES))
    }
}

fn write_tokens(
    writer: &mut BitWriter,
    tokens: &[Token],
    litlen: &HuffmanEncoder,
    dist: &HuffmanEncoder,
) {
    for token in tokens {
        match *token {
            Token::Literal(b) => litlen.write(writer, b as usize),
            Token::Match { length, distance } => {
                let (sym, extra_bits, extra) = length_to_symbol(length as usize);
                litlen.write(writer, sym as usize);
                writer.write_bits(extra as u32, extra_bits as u32);
                let (dsym, dextra_bits, dextra) = distance_to_symbol(distance as usize);
                dist.write(writer, dsym as usize);
                writer.write_bits(dextra as u32, dextra_bits as u32);
            }
        }
    }
    litlen.write(writer, END_OF_BLOCK as usize);
}

fn write_fixed_block(writer: &mut BitWriter, tokens: &[Token], last: bool) {
    let fixed = fixed_codes();
    writer.write_bits(last as u32, 1);
    writer.write_bits(0b01, 2);
    write_tokens(writer, tokens, &fixed.litlen, &fixed.dist);
}

/// Chooses between a fixed and a dynamic block based on exact bit cost.
fn write_best_block(writer: &mut BitWriter, tokens: &[Token], last: bool) {
    let stats = block_stats(tokens);
    let litlen_lengths = build_code_lengths(&stats.litlen_freqs, MAX_CODE_BITS);
    let mut dist_lengths = build_code_lengths(&stats.dist_freqs, MAX_CODE_BITS);
    if dist_lengths.iter().all(|&l| l == 0) {
        // RFC 1951 requires HDIST >= 1; give distance symbol 0 a 1-bit code.
        dist_lengths[0] = 1;
    }

    let fixed = fixed_codes();
    let dynamic_header = DynamicHeader::build(&litlen_lengths, &dist_lengths);
    let dynamic_cost = dynamic_header.cost_bits + stats.body_cost(&litlen_lengths, &dist_lengths);
    let fixed_cost = stats.body_cost(fixed.litlen.lengths(), fixed.dist.lengths());

    if dynamic_cost < fixed_cost {
        writer.write_bits(last as u32, 1);
        writer.write_bits(0b10, 2);
        dynamic_header.write(writer);
        let litlen = HuffmanEncoder::from_lengths(&litlen_lengths).expect("built lengths valid");
        let dist = HuffmanEncoder::from_lengths(&dist_lengths).expect("built lengths valid");
        write_tokens(writer, tokens, &litlen, &dist);
    } else {
        write_fixed_block(writer, tokens, last);
    }
}

/// A code-length symbol with its extra-bit payload.
#[derive(Debug, Clone, Copy)]
struct ClSymbol {
    symbol: u16,
    extra_bits: u8,
    extra: u16,
}

/// The HLIT/HDIST/HCLEN header of a dynamic block, precomputed so its cost
/// can be compared against a fixed block before committing.
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    clc_lengths: Vec<u8>,
    cl_symbols: Vec<ClSymbol>,
    cost_bits: u64,
}

impl DynamicHeader {
    fn build(litlen_lengths: &[u8], dist_lengths: &[u8]) -> Self {
        let hlit = (257..=NUM_LITLEN_SYMBOLS)
            .rev()
            .find(|&n| litlen_lengths[n - 1] != 0)
            .unwrap_or(257)
            .max(257);
        let hdist = (1..=NUM_DIST_SYMBOLS)
            .rev()
            .find(|&n| dist_lengths[n - 1] != 0)
            .unwrap_or(1)
            .max(1);

        let mut combined = Vec::with_capacity(hlit + hdist);
        combined.extend_from_slice(&litlen_lengths[..hlit]);
        combined.extend_from_slice(&dist_lengths[..hdist]);
        let cl_symbols = rle_code_lengths(&combined);

        let mut clc_freqs = [0u64; NUM_CLC_SYMBOLS];
        for s in &cl_symbols {
            clc_freqs[s.symbol as usize] += 1;
        }
        let clc_lengths = build_code_lengths(&clc_freqs, MAX_CLC_BITS);
        let hclen = CLC_ORDER
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &sym)| clc_lengths[sym] != 0)
            .map(|(i, _)| i + 1)
            .unwrap_or(4)
            .max(4);

        let mut cost_bits = 5 + 5 + 4 + 3 * hclen as u64;
        for s in &cl_symbols {
            cost_bits += clc_lengths[s.symbol as usize] as u64 + s.extra_bits as u64;
        }

        Self {
            hlit,
            hdist,
            hclen,
            clc_lengths,
            cl_symbols,
            cost_bits,
        }
    }

    fn write(&self, writer: &mut BitWriter) {
        writer.write_bits((self.hlit - 257) as u32, 5);
        writer.write_bits((self.hdist - 1) as u32, 5);
        writer.write_bits((self.hclen - 4) as u32, 4);
        for &sym in CLC_ORDER.iter().take(self.hclen) {
            writer.write_bits(self.clc_lengths[sym] as u32, 3);
        }
        let clc = HuffmanEncoder::from_lengths(&self.clc_lengths).expect("clc lengths valid");
        for s in &self.cl_symbols {
            clc.write(writer, s.symbol as usize);
            writer.write_bits(s.extra as u32, s.extra_bits as u32);
        }
    }
}

/// Run-length encodes a sequence of code lengths into code-length-code
/// symbols (RFC 1951 §3.2.7: 16 = repeat previous 3–6, 17 = zeros 3–10,
/// 18 = zeros 11–138).
fn rle_code_lengths(lengths: &[u8]) -> Vec<ClSymbol> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lengths.len() {
        let value = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == value {
            run += 1;
        }
        if value == 0 {
            let mut remaining = run;
            while remaining >= 3 {
                if remaining >= 11 {
                    let take = remaining.min(138);
                    out.push(ClSymbol {
                        symbol: 18,
                        extra_bits: 7,
                        extra: (take - 11) as u16,
                    });
                    remaining -= take;
                } else {
                    let take = remaining.min(10);
                    out.push(ClSymbol {
                        symbol: 17,
                        extra_bits: 3,
                        extra: (take - 3) as u16,
                    });
                    remaining -= take;
                }
            }
            for _ in 0..remaining {
                out.push(ClSymbol {
                    symbol: 0,
                    extra_bits: 0,
                    extra: 0,
                });
            }
        } else {
            // The first occurrence is sent literally; repeats may use 16.
            out.push(ClSymbol {
                symbol: value as u16,
                extra_bits: 0,
                extra: 0,
            });
            let mut remaining = run - 1;
            while remaining >= 3 {
                let take = remaining.min(6);
                out.push(ClSymbol {
                    symbol: 16,
                    extra_bits: 2,
                    extra: (take - 3) as u16,
                });
                remaining -= take;
            }
            for _ in 0..remaining {
                out.push(ClSymbol {
                    symbol: value as u16,
                    extra_bits: 0,
                    extra: 0,
                });
            }
        }
        i += run;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate_decompress;

    fn roundtrip(data: &[u8], level: Level) -> Vec<u8> {
        let compressed = deflate_compress(data, level);
        assert_eq!(
            inflate_decompress(&compressed).unwrap(),
            data,
            "level {level:?}"
        );
        compressed
    }

    #[test]
    fn empty_input_all_levels() {
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            roundtrip(b"", level);
        }
    }

    #[test]
    fn small_literal_only_input() {
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            roundtrip(b"hello", level);
            roundtrip(&[0u8], level);
            roundtrip(&[0xFFu8; 2], level);
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let compressed = roundtrip(&data, Level::Default);
        assert!(
            compressed.len() < data.len() / 5,
            "expected >5x compression, got {} -> {}",
            data.len(),
            compressed.len()
        );
        // Best should not be worse than Fast.
        let fast = deflate_compress(&data, Level::Fast);
        let best = deflate_compress(&data, Level::Best);
        assert!(best.len() <= fast.len());
    }

    #[test]
    fn stored_level_roundtrips_large_buffers() {
        // Exercise multi-block stored output (> 65535 bytes).
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 256) as u8).collect();
        let compressed = roundtrip(&data, Level::Store);
        // Stored adds 5 bytes per 65535-byte block plus the data itself.
        assert!(compressed.len() >= data.len());
        assert!(compressed.len() < data.len() + 64);
    }

    #[test]
    fn random_like_data_does_not_blow_up() {
        let data: Vec<u8> = (0..50_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let compressed = roundtrip(&data, Level::Default);
        // Incompressible data should stay within a few percent of original.
        assert!(compressed.len() < data.len() + data.len() / 10);
    }

    #[test]
    fn rle_code_length_encoding_covers_all_cases() {
        // Long zero run (uses 18), short zero run (17), literal repeats (16).
        let mut lengths = vec![0u8; 140];
        lengths.extend_from_slice(&[5; 9]);
        lengths.extend_from_slice(&[0; 4]);
        lengths.extend_from_slice(&[3, 3]);
        let symbols = rle_code_lengths(&lengths);
        let symbols_used: std::collections::HashSet<u16> =
            symbols.iter().map(|s| s.symbol).collect();
        assert!(symbols_used.contains(&18));
        assert!(symbols_used.contains(&17));
        assert!(symbols_used.contains(&16));
        // Expanding the RLE must reproduce the original lengths.
        let mut expanded = Vec::new();
        let mut prev = 0u8;
        for s in &symbols {
            match s.symbol {
                16 => {
                    for _ in 0..(s.extra + 3) {
                        expanded.push(prev);
                    }
                }
                17 => {
                    expanded.extend(std::iter::repeat_n(0, (s.extra + 3) as usize));
                }
                18 => {
                    expanded.extend(std::iter::repeat_n(0, (s.extra + 11) as usize));
                }
                v => {
                    expanded.push(v as u8);
                    prev = v as u8;
                }
            }
        }
        assert_eq!(expanded, lengths);
    }

    #[test]
    fn fixed_and_dynamic_blocks_are_both_produced() {
        // Tiny input: fixed block header is cheaper.
        let tiny = deflate_compress(b"abc", Level::Default);
        // BTYPE lives in bits 1..3 of the first byte.
        assert_eq!(
            (tiny[0] >> 1) & 0b11,
            0b01,
            "tiny input should use a fixed block"
        );
        // Large skewed input: dynamic must win.
        let data = b"aaaaaaaaaaaaaaaabbbbcccc".repeat(2000);
        let big = deflate_compress(&data, Level::Default);
        assert_eq!(
            (big[0] >> 1) & 0b11,
            0b10,
            "large input should use a dynamic block"
        );
    }

    #[test]
    fn multi_block_output_for_very_long_token_streams() {
        // Enough distinct short matches/literals to exceed TOKENS_PER_BLOCK.
        let mut data = Vec::new();
        for i in 0..120_000u32 {
            data.push((i.wrapping_mul(2654435761) >> 11) as u8);
        }
        roundtrip(&data, Level::Fast);
    }

    #[test]
    fn level_default_is_default() {
        assert_eq!(Level::default(), Level::Default);
    }
}
