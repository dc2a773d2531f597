//! Generalized Deduplication (GD) core for the ZipLine reproduction.
//!
//! This crate implements the compression algorithm at the heart of
//! *ZipLine: In-Network Compression at Line Speed* (CoNEXT 2020):
//!
//! * bit-exact buffers ([`bits`]) — Hamming block lengths are never byte
//!   aligned, so all processing is done at bit granularity;
//! * polynomial arithmetic over GF(2) ([`poly`]) and a generic CRC engine
//!   ([`crc`]) matching the paper's `CRC(B) = B(x) mod g(x)` convention;
//! * Hamming codes and their CRC equivalence ([`hamming`], Tables 1 and 2 of
//!   the paper);
//! * the GD transformation function mapping a chunk to a *basis* plus a
//!   *deviation* ([`transform`], Figures 1 and 2);
//! * a chunk/stream codec ([`codec`]), the basis dictionary with LRU + TTL
//!   semantics ([`dictionary`]), the ZipLine wire formats ([`packet`]) and
//!   compression statistics ([`stats`]).
//!
//! The crate is hardware independent: the in-switch deployment of the same
//! workflow lives in the `zipline` and `zipline-switch` crates.
//!
//! # Word-parallel fast path (PR 1)
//!
//! The entire data path operates on **packed `u64` words** rather than
//! per-bit loops. The conventions, shared by every fast-path API:
//!
//! * a [`BitVec`] stores bit `i` of the sequence in word `i / 64` at bit
//!   `63 - (i % 64)` (MSB-first), so a storage word read as an integer *is*
//!   the corresponding 64-bit slice of the sequence, and storage bits at
//!   positions `>= len()` are always zero (the masked-tail invariant);
//! * [`CrcEngine::checksum_words`](crc::CrcEngine::checksum_words) consumes
//!   those words directly with slicing-by-8 tables (64 message bits per
//!   step, any width `m <= 32`), with
//!   [`compute_bits_serial`](crc::CrcEngine::compute_bits_serial) kept as
//!   the cross-checked bit-serial reference;
//! * [`HammingCode`] resolves syndromes through an O(1)
//!   syndrome→error-position table, so applying a deviation is a single-word
//!   bit flip rather than an `n`-bit mask XOR;
//! * [`ChunkCodec::encode_chunks`](codec::ChunkCodec::encode_chunks) /
//!   [`GdCompressor::compress_batch`](codec::GdCompressor::compress_batch)
//!   batch-encode whole buffers against a reused
//!   [`EncodeScratch`], allocation-free in steady
//!   state.
//!
//! Bit-exact equivalence of every fast path against its bit-serial
//! reference is enforced by `tests/word_parallel_equivalence.rs`.
//!
//! # Dictionary hot path and batch decode (PR 2)
//!
//! The stream codec's remaining hot spots were rebuilt for the
//! `zipline-engine` subsystem, which stacks a sharded, multi-core engine on
//! top of this crate:
//!
//! * [`BitVec`] stores up to 64 bits inline (no heap traffic for carried
//!   bits, deviations or identifiers) and exposes
//!   [`hash_words`](BitVec::hash_words), a word-parallel basis hash computed
//!   once per chunk and cached on
//!   [`EncodedChunk::basis_hash`](codec::EncodedChunk::basis_hash);
//! * [`BasisDictionary`] resolves identifiers through a dense entry slab
//!   (ids are `0..capacity`, so every LRU hop is a vector index) and probes
//!   bases through hash buckets keyed by the cached hash — no SipHash over
//!   247-bit keys anywhere on the hot path;
//! * [`GdDecompressor::decompress_batch`](codec::GdDecompressor::decompress_batch)
//!   is the decode twin of `compress_batch`. The paper's decoder (Figure 2)
//!   regenerates the truncated parity bits of every packet by running its
//!   basis through the CRC unit again — free in a switch pipeline, the
//!   whole cost of decoding on a host. The host decoders hoist that from
//!   per chunk to per basis: a [`ChunkCache`](codec::ChunkCache) keeps what
//!   each identifier's basis restores to, built once through
//!   [`ChunkCodec::decode_parts_into`](codec::ChunkCodec::decode_parts_into)
//!   against a recycled [`DecodeScratch`], and a chunk is then a copy of
//!   that, an OR of its carried bits and the flip of the one bit its
//!   deviation names. A slot is invalidated whenever its identifier is
//!   assigned a basis, filled on the first reference after that, and read
//!   only after the dictionary has said the identifier is live. The switch
//!   model (`zipline::decoder::ZipLineDecodeProgram`) is deliberately left
//!   recomputing per packet, as the hardware it models does;
//! * [`ZipLinePayload::encode_into`](packet::ZipLinePayload::encode_into)
//!   serializes wire payloads into a caller-owned scratch buffer, making the
//!   switch programs' per-packet rewrite allocation-free.
//!
//! # Quick example
//!
//! ```
//! use zipline_gd::{GdConfig, codec::ChunkCodec};
//!
//! // Paper parameters: Hamming(255, 247), 15-bit identifiers, 32-byte chunks.
//! let config = GdConfig::paper_default();
//! let codec = ChunkCodec::new(&config).unwrap();
//!
//! let chunk = [0xAB_u8; 32];
//! let encoded = codec.encode_chunk(&chunk).unwrap();
//! let decoded = codec.decode_chunk(&encoded).unwrap();
//! assert_eq!(decoded, chunk);
//! ```

pub mod bits;
pub mod codec;
pub mod config;
pub mod crc;
pub mod dictionary;
pub mod error;
pub mod hamming;
pub mod packet;
pub mod poly;
pub mod stats;
pub mod transform;

pub use bits::BitVec;
pub use codec::{ChunkCodec, DecodeScratch, EncodeScratch, GdCompressor, GdDecompressor};
pub use config::GdConfig;
pub use crc::{CrcEngine, CrcSpec};
pub use dictionary::{BasisDictionary, BasisDictionaryState, DictionaryEntryState};
pub use error::GdError;
pub use hamming::HammingCode;
pub use packet::{PacketType, ZipLinePayload};
pub use stats::CompressionStats;
pub use transform::HammingTransform;
