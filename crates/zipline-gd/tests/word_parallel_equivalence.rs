//! Property tests pinning the word-parallel fast paths to their bit-serial
//! references.
//!
//! The PR-1 refactor rebuilt the GD hot path around packed `u64` words
//! (bulk `BitVec` ops, the slicing-by-8 CRC, the batch chunk encoder). Every
//! fast path keeps its slow counterpart in-tree as the semantic reference;
//! this suite asserts bit-exact equivalence on random inputs so any future
//! divergence is caught immediately.

use proptest::prelude::*;
use zipline_gd::bits::BitVec;
use zipline_gd::codec::{ChunkCodec, EncodeScratch, GdCompressor};
use zipline_gd::crc::{CrcEngine, CrcSpec};
use zipline_gd::hamming::HammingCode;
use zipline_gd::{GdConfig, HammingTransform};

/// Bit-serial reference for `BitVec::from_bytes`.
fn from_bytes_reference(bytes: &[u8]) -> BitVec {
    let mut v = BitVec::new();
    for &b in bytes {
        for i in (0..8).rev() {
            v.push((b >> i) & 1 == 1);
        }
    }
    v
}

/// Bit-serial reference for `BitVec::to_bytes`.
fn to_bytes_reference(bits: &BitVec) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for i in 0..bits.len() {
        if bits.get(i) {
            out[i / 8] |= 1 << (7 - (i % 8));
        }
    }
    out
}

fn bitvec_strategy(max_bits: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), 0..max_bits)
        .prop_map(|bools| BitVec::from_bools(&bools))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `from_bytes` packs words identically to pushing every bit.
    #[test]
    fn from_bytes_matches_bit_serial_reference(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(BitVec::from_bytes(&bytes), from_bytes_reference(&bytes));
    }

    /// `to_bytes` round-trips `from_bytes` and matches the per-bit reference
    /// for arbitrary (non-byte-aligned) lengths.
    #[test]
    fn to_bytes_matches_bit_serial_reference(bits in bitvec_strategy(600)) {
        prop_assert_eq!(bits.to_bytes(), to_bytes_reference(&bits));
        // Byte-aligned vectors additionally round-trip through bytes.
        if bits.len().is_multiple_of(8) {
            prop_assert_eq!(BitVec::from_bytes(&bits.to_bytes()), bits);
        }
    }

    /// Word-wise slice/extend/get_bits agree with their per-bit definitions.
    #[test]
    fn bulk_bitvec_ops_match_per_bit_semantics(
        bits in bitvec_strategy(400),
        cut_seed in any::<u64>(),
    ) {
        if !bits.is_empty() {
            let start = (cut_seed % bits.len() as u64) as usize;
            let end = start + ((cut_seed >> 32) as usize % (bits.len() - start + 1));
            let sliced = bits.slice(start..end);
            prop_assert_eq!(sliced.len(), end - start);
            for i in 0..sliced.len() {
                prop_assert_eq!(sliced.get(i), bits.get(start + i));
            }
            let mut rejoined = bits.slice(0..start);
            rejoined.extend_from_bitvec(&sliced);
            rejoined.extend_from_bitvec(&bits.slice(end..bits.len()));
            prop_assert_eq!(rejoined, bits.clone());

            let width = ((cut_seed >> 16) as usize % 64 + 1).min(bits.len() - start);
            if width > 0 {
                let mut reference = 0u64;
                for i in 0..width {
                    reference = (reference << 1) | (bits.get(start + i) as u64);
                }
                prop_assert_eq!(bits.get_bits(start, width), reference);
            }
        }
    }

    /// The slicing-by-8 word CRC equals the bit-serial CRC for every Hamming
    /// parameter of Table 1 (`m ∈ 3..=8` plus the larger rows) on random
    /// messages of random lengths.
    #[test]
    fn checksum_words_equals_bit_serial_for_all_table1_parameters(
        bits in bitvec_strategy(700),
        m in 3u32..=15,
    ) {
        let code = HammingCode::new(m).unwrap();
        let engine: &CrcEngine = code.crc();
        prop_assert_eq!(
            engine.checksum_words(bits.words(), bits.len()),
            engine.compute_bits_serial(&bits),
            "m = {}", m
        );
    }

    /// The slicing-by-8 byte CRC (the socket and journal record checksum)
    /// equals the bit-serial CRC for every byte-table width, across lengths
    /// straddling the 8-byte step and an arbitrary generator of that width.
    #[test]
    fn compute_bytes_equals_bit_serial_for_every_width(
        bytes in proptest::collection::vec(any::<u8>(), 0..=257),
        width in 8u32..=32,
        poly_seed in any::<u64>(),
    ) {
        let spec = CrcSpec::new(width, poly_seed & ((1u64 << width) - 1)).unwrap();
        let engine = CrcEngine::new(spec);
        prop_assert_eq!(
            engine.compute_bytes(&bytes),
            engine.compute_bits_serial(&BitVec::from_bytes(&bytes)),
            "width = {}, len = {}", width, bytes.len()
        );
    }

    /// `checksum_bit_range` equals slicing then running the reference.
    #[test]
    fn checksum_bit_range_equals_sliced_reference(
        bits in bitvec_strategy(500),
        cut_seed in any::<u64>(),
        m in 3u32..=10,
    ) {
        let code = HammingCode::new(m).unwrap();
        let engine = code.crc();
        if !bits.is_empty() {
            let start = (cut_seed % bits.len() as u64) as usize;
            let end = start + ((cut_seed >> 32) as usize % (bits.len() - start + 1));
            prop_assert_eq!(
                engine.checksum_bit_range(&bits, start, end),
                engine.compute_bits_serial(&bits.slice(start..end))
            );
        }
    }

    /// Hamming syndromes via the word path agree with the reference CRC, and
    /// the O(1) error-position lookup inverts them.
    #[test]
    fn syndrome_and_error_position_agree_with_reference(
        seed in any::<u64>(),
        m in 3u32..=10,
    ) {
        let code = HammingCode::new(m).unwrap();
        let mut state = seed;
        let mut word = BitVec::zeros(code.n());
        for i in 0..code.n() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 63 == 1 {
                word.set(i, true);
            }
        }
        let syndrome = code.syndrome(&word).unwrap();
        prop_assert_eq!(syndrome, code.crc().compute_bits_serial(&word));
        // Round-trip through the transform (deconstruct uses the word path,
        // reconstruct the algebraic zero-append).
        let transform = HammingTransform::from_code(code);
        let d = transform.deconstruct(&word).unwrap();
        prop_assert_eq!(transform.reconstruct(&d.basis, d.deviation).unwrap(), word);
    }

    /// The batch encoder is chunk-for-chunk identical to the per-chunk
    /// reference encoder, for the paper's parameters.
    #[test]
    fn encode_chunks_equals_per_chunk_encode(
        data in proptest::collection::vec(any::<u8>(), 0..700),
    ) {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let mut scratch = EncodeScratch::new();
        let (encoded, tail) = codec.encode_chunks(&data, &mut scratch).unwrap();
        let chunk_bytes = config.chunk_bytes;
        prop_assert_eq!(encoded.len(), data.len() / chunk_bytes);
        prop_assert_eq!(tail, &data[data.len() - data.len() % chunk_bytes..]);
        for (i, enc) in encoded.iter().enumerate() {
            let reference = codec.encode_chunk(&data[i * chunk_bytes..(i + 1) * chunk_bytes]).unwrap();
            prop_assert_eq!(enc, &reference, "chunk {}", i);
            // And decode restores the original bytes.
            prop_assert_eq!(
                codec.decode_chunk(enc).unwrap(),
                &data[i * chunk_bytes..(i + 1) * chunk_bytes]
            );
        }
    }

    /// Batch compression (records + statistics) is equivalent to the
    /// per-chunk compressor loop, for a small parameter set too.
    #[test]
    fn compress_batch_equals_per_chunk_compressor(
        data in proptest::collection::vec(0u8..8, 0..300),
        m in 3u32..=8,
    ) {
        let config = GdConfig::for_parameters(m, 10).unwrap();
        let mut batch = GdCompressor::new(&config).unwrap();
        let stream = batch.compress_batch(&data).unwrap();

        let mut reference = GdCompressor::new(&config).unwrap();
        let chunk_bytes = config.chunk_bytes;
        let mut offset = 0;
        let mut index = 0;
        while offset + chunk_bytes <= data.len() {
            let record = reference.compress_chunk(&data[offset..offset + chunk_bytes]).unwrap();
            prop_assert_eq!(&stream.records[index], &record, "record {}", index);
            offset += chunk_bytes;
            index += 1;
        }
        prop_assert_eq!(zipline_gd::codec::decompress(&stream).unwrap(), data);
    }
}
