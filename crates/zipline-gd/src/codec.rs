//! Chunk- and stream-level GD codec.
//!
//! The switch data path (crates `zipline-switch` / `zipline`) works one
//! packet at a time; this module provides the same transformation as an
//! ordinary, host-side compression library:
//!
//! * [`ChunkCodec`] — stateless encode/decode of a single fixed-size chunk
//!   into `(carried bits, deviation, basis)` and back;
//! * [`GdCompressor`] / [`GdDecompressor`] — stateful stream compression
//!   where repeated bases are replaced by dictionary identifiers, plus a
//!   bit-packed serialization of the compressed stream. This is what the
//!   examples use to compare GD against gzip on equal terms, and it mirrors
//!   the "static table" accounting of Figure 3;
//! * [`ChunkCache`] — the decode side of [`ChunkCodec`] as the stateful
//!   decoders (here and in `zipline-engine`) use it: what each identifier's
//!   basis restores to is built once per assignment by
//!   [`ChunkCodec::decode_parts_into`] — the one place a chunk is built
//!   from a basis — and every chunk is emitted from that as a copy, an OR
//!   and a bit flip. The switch model (`zipline::decoder`) does not use it:
//!   it recomputes per packet, as the hardware does.

use crate::bits::{BitReader, BitVec, BitWriter};
use crate::config::GdConfig;
use crate::dictionary::BasisDictionary;
use crate::error::{GdError, Result};
use crate::stats::CompressionStats;
use crate::transform::HammingTransform;

/// A chunk after the GD transformation, before any dictionary lookup.
#[derive(Debug, Default, Clone)]
pub struct EncodedChunk {
    /// Bits of the chunk not covered by the Hamming code, carried verbatim
    /// (the paper's "one additional bit to store the MSB").
    pub extra: BitVec,
    /// The `m`-bit deviation (Hamming syndrome).
    pub deviation: u64,
    /// The `k`-bit basis.
    pub basis: BitVec,
    /// Cached [`BitVec::hash_words`] of `basis`, computed once by the encode
    /// paths so dictionary probes (and engine shard selection) never re-hash
    /// the basis. Purely derived data: equality and hashing ignore it, and
    /// decode-side constructors may leave it at 0.
    pub basis_hash: u64,
}

impl PartialEq for EncodedChunk {
    fn eq(&self, other: &Self) -> bool {
        self.extra == other.extra && self.deviation == other.deviation && self.basis == other.basis
    }
}

impl Eq for EncodedChunk {}

impl std::hash::Hash for EncodedChunk {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.extra.hash(state);
        self.deviation.hash(state);
        self.basis.hash(state);
    }
}

/// Reusable scratch buffers for the allocation-free batch encode path
/// ([`ChunkCodec::encode_chunks`] / [`ChunkCodec::encode_chunk_with`]).
///
/// Holding the scratch outside the codec keeps [`ChunkCodec`] shareable
/// (`&self`) while letting each caller amortise its buffer allocations
/// across an entire batch.
#[derive(Debug, Default, Clone)]
pub struct EncodeScratch {
    /// Packed bits of the chunk currently being encoded.
    bits: BitVec,
}

impl EncodeScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stateless encoder/decoder for fixed-size chunks.
#[derive(Debug, Clone)]
pub struct ChunkCodec {
    config: GdConfig,
    transform: HammingTransform,
}

impl ChunkCodec {
    /// Builds a codec for the given configuration.
    pub fn new(config: &GdConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config: *config,
            transform: HammingTransform::new(config.m)?,
        })
    }

    /// The configuration this codec was built for.
    pub fn config(&self) -> &GdConfig {
        &self.config
    }

    /// The underlying transform.
    pub fn transform(&self) -> &HammingTransform {
        &self.transform
    }

    /// Encodes one chunk of exactly `config.chunk_bytes` bytes.
    pub fn encode_chunk(&self, chunk: &[u8]) -> Result<EncodedChunk> {
        if chunk.len() != self.config.chunk_bytes {
            return Err(GdError::LengthMismatch {
                expected: self.config.chunk_bytes,
                actual: chunk.len(),
            });
        }
        let bits = BitVec::from_bytes(chunk);
        let extra_bits = self.config.extra_bits();
        let extra = bits.slice(0..extra_bits);
        let body = bits.slice(extra_bits..bits.len());
        let d = self.transform.deconstruct(&body)?;
        let basis_hash = d.basis.hash_words();
        Ok(EncodedChunk {
            extra,
            deviation: d.deviation,
            basis: d.basis,
            basis_hash,
        })
    }

    /// Encodes one chunk through the word-parallel fast path, reusing
    /// `scratch` across calls.
    ///
    /// Bit-exact with [`Self::encode_chunk`] (enforced by the property-test
    /// suite) but performs no intermediate `BitVec` allocations: the chunk
    /// bytes are packed into the reused scratch words, the syndrome is
    /// computed over a bit range of that buffer, and the single-bit deviation
    /// is flipped directly inside the extracted basis. Only the two output
    /// buffers (`extra`, `basis`) are allocated.
    pub fn encode_chunk_with(
        &self,
        chunk: &[u8],
        scratch: &mut EncodeScratch,
    ) -> Result<EncodedChunk> {
        let mut out = EncodedChunk::default();
        self.encode_chunk_into(chunk, scratch, &mut out)?;
        Ok(out)
    }

    /// The fully allocation-free form of [`Self::encode_chunk_with`]: writes
    /// the result into `out`, reusing the storage of its `extra`/`basis`
    /// buffers. In steady state (scratch and output recycled across chunks)
    /// the encode performs no heap allocation at all.
    pub fn encode_chunk_into(
        &self,
        chunk: &[u8],
        scratch: &mut EncodeScratch,
        out: &mut EncodedChunk,
    ) -> Result<()> {
        if chunk.len() != self.config.chunk_bytes {
            return Err(GdError::LengthMismatch {
                expected: self.config.chunk_bytes,
                actual: chunk.len(),
            });
        }
        let code = self.transform.code();
        let extra_bits = self.config.extra_bits();
        let m = code.m() as usize;
        let n = code.n();

        let bits = &mut scratch.bits;
        bits.load_bytes(chunk);
        // ➋ syndrome over the Hamming block, straight off the packed words.
        let deviation = code
            .crc()
            .checksum_bit_range(bits, extra_bits, extra_bits + n);
        // ➎ rightmost k bits, with the ➌/➍ error flip folded in.
        out.basis
            .copy_range_from(bits, extra_bits + m..extra_bits + n);
        code.fold_error_into_basis(&mut out.basis, deviation)?;
        out.extra.copy_range_from(bits, 0..extra_bits);
        out.deviation = deviation;
        out.basis_hash = out.basis.hash_words();
        Ok(())
    }

    /// Encodes every whole chunk of `data` through the fast path, reusing
    /// `scratch` across chunks. Returns the encoded chunks in input order
    /// plus the trailing bytes that did not fill a whole chunk.
    pub fn encode_chunks<'d>(
        &self,
        data: &'d [u8],
        scratch: &mut EncodeScratch,
    ) -> Result<(Vec<EncodedChunk>, &'d [u8])> {
        let mut encoded = Vec::with_capacity(data.len() / self.config.chunk_bytes);
        let tail = self.encode_chunks_into(data, scratch, &mut encoded)?;
        Ok((encoded, tail))
    }

    /// The recycling form of [`Self::encode_chunks`]: truncates `out` to the
    /// batch size and overwrites its entries in place, reusing their
    /// `extra`/`basis` storage. With `scratch` and `out` carried across
    /// batches, steady-state encoding is allocation-free. Returns the
    /// trailing bytes that did not fill a whole chunk.
    pub fn encode_chunks_into<'d>(
        &self,
        data: &'d [u8],
        scratch: &mut EncodeScratch,
        out: &mut Vec<EncodedChunk>,
    ) -> Result<&'d [u8]> {
        let chunk_bytes = self.config.chunk_bytes;
        let mut chunks = data.chunks_exact(chunk_bytes);
        out.truncate(data.len() / chunk_bytes);
        for (i, chunk) in (&mut chunks).enumerate() {
            if let Some(slot) = out.get_mut(i) {
                self.encode_chunk_into(chunk, scratch, slot)?;
            } else {
                out.push(self.encode_chunk_with(chunk, scratch)?);
            }
        }
        Ok(chunks.remainder())
    }

    /// Decodes one chunk back to its original bytes.
    pub fn decode_chunk(&self, encoded: &EncodedChunk) -> Result<Vec<u8>> {
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::with_capacity(self.config.chunk_bytes);
        self.decode_parts_into(
            &encoded.extra,
            encoded.deviation,
            &encoded.basis,
            &mut scratch,
            &mut out,
        )?;
        Ok(out)
    }

    /// The recycling decode primitive, symmetric to
    /// [`Self::encode_chunk_into`]: reconstructs the chunk described by
    /// `(extra, deviation, basis)` and *appends* its bytes to `out`, reusing
    /// `scratch` for the intermediate bit buffers. With `scratch` and `out`
    /// carried across calls (as a [`ChunkCache`] does when it fills a slot),
    /// steady-state decoding performs no heap allocation.
    pub fn decode_parts_into(
        &self,
        extra: &BitVec,
        deviation: u64,
        basis: &BitVec,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if extra.len() != self.config.extra_bits() {
            return Err(GdError::LengthMismatch {
                expected: self.config.extra_bits(),
                actual: extra.len(),
            });
        }
        let DecodeScratch { body, assembled } = scratch;
        self.transform.reconstruct_into(basis, deviation, body)?;
        assembled.clear();
        assembled.extend_from_bitvec(extra);
        assembled.extend_from_bitvec(body);
        debug_assert_eq!(assembled.len(), self.config.raw_payload_bits());
        assembled.append_bytes_to(out);
        Ok(())
    }
}

/// Reusable scratch buffers for the allocation-free decode primitive
/// ([`ChunkCodec::decode_parts_into`]), mirroring [`EncodeScratch`] on the
/// encode side.
#[derive(Debug, Default, Clone)]
pub struct DecodeScratch {
    /// Reconstructed `n`-bit codeword of the record being decoded.
    body: BitVec,
    /// Carried bits + codeword, assembled before byte serialization.
    assembled: BitVec,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where the carried bits of the chunk being decoded sit.
#[derive(Debug, Clone)]
pub enum Carried<'a> {
    /// In a record's bit vector (all of it).
    Record(&'a BitVec),
    /// On the wire, from the reader's position on (see
    /// [`PayloadFields`](crate::packet::PayloadFields)).
    Wire(BitReader<'a>),
}

/// The decode side of [`ChunkCodec`] with the reconstruction hoisted from
/// per chunk to per basis: the cache keeps what each identifier's basis
/// restores to with no carried bits and no deviation, so a chunk is rebuilt
/// from its basis (parity CRC, bit assembly — [`ChunkCodec::decode_parts_into`])
/// once per identifier assignment, and every chunk is emitted as a copy of
/// that, an OR of its carried bits and the flip of one bit.
///
/// Invariant: a slot is [`invalidate`](Self::invalidate)d whenever its
/// identifier is assigned a basis, filled from the basis the dictionary
/// returns on the first [`emit`](Self::emit) after that, and read only after
/// the dictionary has said the identifier is live — the dictionary, never
/// the cache, decides liveness, so a retired identifier's stale slot is
/// unreachable. Slots are per shard and indexed by local identifier, and
/// grow with the identifiers actually referenced: `chunk_bytes` per basis,
/// not per identifier the configuration could assign.
#[derive(Debug, Clone)]
pub struct ChunkCache {
    codec: ChunkCodec,
    shards: Vec<ShardSlots>,
    /// `extra_bits` zero bits: the carried bits every slot is built with.
    no_carried: BitVec,
    scratch: DecodeScratch,
    /// Landing buffer of a fill (`decode_parts_into` appends).
    filled: Vec<u8>,
}

#[derive(Debug, Default, Clone)]
struct ShardSlots {
    /// `chunk_bytes` per local identifier, back to back.
    bytes: Vec<u8>,
    /// Whether the slot holds the chunk of its identifier's current basis.
    valid: Vec<bool>,
}

impl ChunkCache {
    /// An empty cache over `shards` identifier ranges (1 for a plain
    /// [`BasisDictionary`]).
    pub fn new(config: &GdConfig, shards: usize) -> Result<Self> {
        Ok(Self {
            codec: ChunkCodec::new(config)?,
            shards: vec![ShardSlots::default(); shards],
            no_carried: BitVec::zeros(config.extra_bits()),
            scratch: DecodeScratch::new(),
            filled: Vec::new(),
        })
    }

    /// Forgets what `local` of `shard` restored to: its identifier has just
    /// been assigned a (new) basis.
    pub fn invalidate(&mut self, shard: usize, local: u64) {
        if let Some(valid) = self.shards[shard].valid.get_mut(local as usize) {
            *valid = false;
        }
    }

    /// Bytes of restored chunks the cache holds: `chunk_bytes` per local
    /// identifier referenced so far, summed over the shards.
    pub fn held_bytes(&self) -> usize {
        self.shards.iter().map(|slots| slots.bytes.len()).sum()
    }

    /// What `basis` — the live mapping of `local` in `shard` — restores to
    /// with no carried bits and no deviation, built first if the slot is not
    /// valid. The one place the decoders turn a basis into chunk bytes.
    fn slot(&mut self, shard: usize, local: u64, basis: &BitVec) -> Result<&[u8]> {
        let chunk_bytes = self.codec.config().chunk_bytes;
        let slots = &mut self.shards[shard];
        let local = local as usize;
        if local >= slots.valid.len() {
            slots.valid.resize(local + 1, false);
            slots.bytes.resize((local + 1) * chunk_bytes, 0);
        }
        let slot = local * chunk_bytes..(local + 1) * chunk_bytes;
        if !slots.valid[local] {
            self.filled.clear();
            self.codec.decode_parts_into(
                &self.no_carried,
                0,
                basis,
                &mut self.scratch,
                &mut self.filled,
            )?;
            slots.bytes[slot.clone()].copy_from_slice(&self.filled);
            slots.valid[local] = true;
        }
        Ok(&slots.bytes[slot])
    }

    /// Appends to `out` the chunk `(carried, deviation, basis)` describes,
    /// where `basis` is what the dictionary just returned as the live
    /// mapping of `local` in `shard`: a copy of the slot, an OR of the
    /// carried bits into its first `extra_bits` bits and the flip of the bit
    /// the deviation names. Errors are those of
    /// [`ChunkCodec::decode_parts_into`], in its order (carried-bit count,
    /// basis length, deviation range), and leave `out` untouched.
    pub fn emit(
        &mut self,
        shard: usize,
        local: u64,
        basis: &BitVec,
        deviation: u64,
        mut carried: Carried<'_>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let extra_bits = self.codec.config().extra_bits();
        match &carried {
            Carried::Record(bits) if bits.len() != extra_bits => {
                return Err(GdError::LengthMismatch {
                    expected: extra_bits,
                    actual: bits.len(),
                });
            }
            Carried::Wire(reader) if reader.remaining_bits() < extra_bits => {
                return Err(GdError::Malformed(format!(
                    "payload ends inside its {extra_bits} carried bits"
                )));
            }
            _ => {}
        }
        // Resolved before the slot borrows the cache, reported after it.
        let position = self.codec.transform().deviation_position(deviation);
        let cached = self.slot(shard, local, basis)?;
        let position = position?;

        let start = out.len();
        out.extend_from_slice(cached);
        let chunk = &mut out[start..];
        let mut at = 0;
        while at < extra_bits {
            let width = (extra_bits - at).min(64);
            let bits = match &mut carried {
                Carried::Record(bits) => bits.get_bits(at, width),
                Carried::Wire(reader) => reader
                    .read_bits(width)
                    .expect("remaining bits checked above"),
            };
            let word = (bits << (64 - width)).to_be_bytes();
            for (byte, bits) in chunk[at / 8..].iter_mut().zip(&word[..width.div_ceil(8)]) {
                *byte |= bits;
            }
            at += width;
        }
        if let Some(position) = position {
            let bit = extra_bits + position;
            chunk[bit / 8] ^= 0x80 >> (bit % 8);
        }
        Ok(())
    }
}

/// One record of a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// First occurrence of a basis: carried bits, deviation and the basis
    /// itself (the receiver learns the next free identifier implicitly).
    NewBasis {
        extra: BitVec,
        deviation: u64,
        basis: BitVec,
    },
    /// A chunk whose basis is already known, referenced by identifier.
    Ref {
        extra: BitVec,
        deviation: u64,
        id: u64,
    },
    /// Trailing bytes that did not fill a whole chunk, stored verbatim.
    RawTail { bytes: Vec<u8> },
}

/// A GD-compressed stream: configuration plus records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedStream {
    /// Configuration used to produce the stream.
    pub config: GdConfig,
    /// Records in input order.
    pub records: Vec<Record>,
}

/// Record tags used by the bit-packed serialization.
const TAG_NEW_BASIS: u64 = 0;
const TAG_REF: u64 = 1;
const TAG_RAW_TAIL: u64 = 2;
/// Magic bytes identifying a serialized GD stream ("GD" + format version 1).
const MAGIC: [u8; 3] = [0x47, 0x44, 0x01];

impl CompressedStream {
    /// Size of the stream payload in bits when serialized without container
    /// overhead — the number the Figure 3 experiment accounts (each record's
    /// wire size, excluding the fixed stream header).
    pub fn payload_bits(&self) -> usize {
        let k = self.config.k();
        let m = self.config.m as usize;
        let t = self.config.id_bits as usize;
        let e = self.config.extra_bits();
        self.records
            .iter()
            .map(|r| match r {
                Record::NewBasis { .. } => 2 + m + e + k,
                Record::Ref { .. } => 2 + m + e + t,
                Record::RawTail { bytes } => 2 + 16 + bytes.len() * 8,
            })
            .sum()
    }

    /// Serialized size in bytes, including the stream header.
    pub fn serialized_len(&self) -> usize {
        MAGIC.len() + 8 + (self.payload_bits().div_ceil(8))
    }

    /// Serializes the stream to a self-describing byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = Vec::with_capacity(self.serialized_len());
        header.extend_from_slice(&MAGIC);
        header.push(self.config.m as u8);
        header.push(self.config.id_bits as u8);
        header.extend_from_slice(&(self.config.chunk_bytes as u16).to_be_bytes());
        header.extend_from_slice(&(self.records.len() as u32).to_be_bytes());

        let mut w = BitWriter::new();
        let m = self.config.m as usize;
        let t = self.config.id_bits as usize;
        for record in &self.records {
            match record {
                Record::NewBasis {
                    extra,
                    deviation,
                    basis,
                } => {
                    w.write_bits(TAG_NEW_BASIS, 2);
                    w.write_bits(*deviation, m);
                    w.write_bitvec(extra);
                    w.write_bitvec(basis);
                }
                Record::Ref {
                    extra,
                    deviation,
                    id,
                } => {
                    w.write_bits(TAG_REF, 2);
                    w.write_bits(*deviation, m);
                    w.write_bitvec(extra);
                    w.write_bits(*id, t);
                }
                Record::RawTail { bytes } => {
                    w.write_bits(TAG_RAW_TAIL, 2);
                    w.write_bits(bytes.len() as u64, 16);
                    w.write_bytes(bytes);
                }
            }
        }
        header.extend_from_slice(&w.into_bytes());
        header
    }

    /// Parses a stream serialized by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        if data.len() < MAGIC.len() + 8 {
            return Err(GdError::Malformed("stream too short for header".into()));
        }
        if data[..3] != MAGIC {
            return Err(GdError::Malformed("bad magic bytes".into()));
        }
        let m = data[3] as u32;
        let id_bits = data[4] as u32;
        let chunk_bytes = u16::from_be_bytes([data[5], data[6]]) as usize;
        let record_count = u32::from_be_bytes([data[7], data[8], data[9], data[10]]) as usize;
        let config = GdConfig {
            m,
            id_bits,
            chunk_bytes,
            tofino_padding_bits: 0,
        };
        config.validate()?;

        let mut reader = BitReader::new(&data[11..]);
        let mut records = Vec::with_capacity(record_count);
        let k = config.k();
        let e = config.extra_bits();
        for _ in 0..record_count {
            let tag = reader.read_bits(2)?;
            let record = match tag {
                TAG_NEW_BASIS => {
                    let deviation = reader.read_bits(m as usize)?;
                    let extra = reader.read_bitvec(e)?;
                    let basis = reader.read_bitvec(k)?;
                    Record::NewBasis {
                        extra,
                        deviation,
                        basis,
                    }
                }
                TAG_REF => {
                    let deviation = reader.read_bits(m as usize)?;
                    let extra = reader.read_bitvec(e)?;
                    let id = reader.read_bits(id_bits as usize)?;
                    Record::Ref {
                        extra,
                        deviation,
                        id,
                    }
                }
                TAG_RAW_TAIL => {
                    let len = reader.read_bits(16)? as usize;
                    let mut bytes = Vec::with_capacity(len);
                    for _ in 0..len {
                        bytes.push(reader.read_bits(8)? as u8);
                    }
                    Record::RawTail { bytes }
                }
                other => return Err(GdError::Malformed(format!("unknown record tag {other}"))),
            };
            records.push(record);
        }
        Ok(Self { config, records })
    }
}

/// Stateful stream compressor: deduplicates bases through a
/// [`BasisDictionary`].
#[derive(Debug, Clone)]
pub struct GdCompressor {
    codec: ChunkCodec,
    dictionary: BasisDictionary,
    stats: CompressionStats,
    clock: u64,
    /// Reused by [`Self::compress_batch`] so steady-state compression does
    /// not allocate per chunk.
    scratch: EncodeScratch,
    /// Recycled single-chunk slot for [`Self::compress_batch`] (the batch
    /// streams through it, so peak memory stays O(1) in the input size).
    encoded_scratch: EncodedChunk,
}

impl GdCompressor {
    /// Builds a compressor with a fresh dictionary sized by the
    /// configuration.
    pub fn new(config: &GdConfig) -> Result<Self> {
        Ok(Self {
            codec: ChunkCodec::new(config)?,
            dictionary: BasisDictionary::new(config.dictionary_capacity()),
            stats: CompressionStats::new(),
            clock: 0,
            scratch: EncodeScratch::new(),
            encoded_scratch: EncodedChunk::default(),
        })
    }

    /// Builds a compressor with a pre-populated dictionary (the "static
    /// table" scenario of Figure 3).
    pub fn with_dictionary(config: &GdConfig, dictionary: BasisDictionary) -> Result<Self> {
        Ok(Self {
            codec: ChunkCodec::new(config)?,
            dictionary,
            stats: CompressionStats::new(),
            clock: 0,
            scratch: EncodeScratch::new(),
            encoded_scratch: EncodedChunk::default(),
        })
    }

    /// The chunk codec.
    pub fn codec(&self) -> &ChunkCodec {
        &self.codec
    }

    /// Current compression statistics.
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }

    /// Access to the dictionary (e.g. to inspect learned bases).
    pub fn dictionary(&self) -> &BasisDictionary {
        &self.dictionary
    }

    /// Runs the dictionary lookup/learn step on one encoded chunk and
    /// produces its stream record (shared by the per-chunk and batch paths).
    fn record_for(&mut self, mut encoded: EncodedChunk) -> Result<Record> {
        self.record_for_mut(&mut encoded)
    }

    /// [`Self::record_for`] over a borrowed chunk: moves only the buffers
    /// the record actually needs out of `encoded` (for the common `Ref` case
    /// the basis storage stays behind and is recycled by the next batch).
    fn record_for_mut(&mut self, encoded: &mut EncodedChunk) -> Result<Record> {
        self.clock += 1;
        self.stats.chunks_in += 1;
        self.stats.bytes_in += self.codec.config().chunk_bytes as u64;
        let m = self.codec.config().m as usize;
        let e = self.codec.config().extra_bits();
        debug_assert_eq!(
            encoded.basis_hash,
            encoded.basis.hash_words(),
            "encode paths keep the cached basis hash fresh"
        );
        match self.dictionary.lookup_basis_hashed(
            &encoded.basis,
            encoded.basis_hash,
            self.clock,
            true,
        ) {
            Some(id) => {
                self.stats.emitted_compressed += 1;
                self.stats.bytes_out +=
                    ((m + e + self.codec.config().id_bits as usize) as u64).div_ceil(8);
                Ok(Record::Ref {
                    extra: std::mem::take(&mut encoded.extra),
                    deviation: encoded.deviation,
                    id,
                })
            }
            None => {
                let outcome = self.dictionary.insert_hashed(
                    encoded.basis.clone(),
                    encoded.basis_hash,
                    self.clock,
                )?;
                if outcome.evicted.is_some() {
                    self.stats.evictions += 1;
                }
                self.stats.bases_learned += 1;
                self.stats.emitted_uncompressed += 1;
                self.stats.bytes_out += ((m + e + self.codec.config().k()) as u64).div_ceil(8);
                Ok(Record::NewBasis {
                    extra: std::mem::take(&mut encoded.extra),
                    deviation: encoded.deviation,
                    basis: std::mem::take(&mut encoded.basis),
                })
            }
        }
    }

    /// Accounts and stores the trailing partial chunk of a buffer.
    fn raw_tail_record(&mut self, tail: &[u8]) -> Record {
        self.stats.bytes_in += tail.len() as u64;
        self.stats.bytes_out += tail.len() as u64;
        self.stats.emitted_raw += 1;
        self.stats.chunks_in += 1;
        Record::RawTail {
            bytes: tail.to_vec(),
        }
    }

    /// Compresses one chunk, updating the dictionary.
    ///
    /// Reference path used by tests and single-chunk callers; bulk callers
    /// should prefer [`Self::compress_batch`], which is equivalent but
    /// reuses scratch buffers across chunks.
    pub fn compress_chunk(&mut self, chunk: &[u8]) -> Result<Record> {
        let encoded = self.codec.encode_chunk(chunk)?;
        self.record_for(encoded)
    }

    /// Compresses a whole buffer. The buffer is split into
    /// `config.chunk_bytes`-sized chunks; a trailing partial chunk is stored
    /// verbatim as a [`Record::RawTail`].
    ///
    /// Delegates to [`Self::compress_batch`].
    pub fn compress(&mut self, data: &[u8]) -> Result<CompressedStream> {
        self.compress_batch(data)
    }

    /// Compresses a whole buffer through the word-parallel batch fast path:
    /// each chunk streams through [`ChunkCodec::encode_chunk_into`] against
    /// the compressor's reused scratch and single recycled output slot, then
    /// runs the same dictionary logic as [`Self::compress_chunk`] — so peak
    /// extra memory stays O(1) in the input size while steady-state encoding
    /// remains allocation-free. Record-for-record and
    /// statistics-for-statistics equivalent to the per-chunk loop (enforced
    /// by the property-test suite).
    pub fn compress_batch(&mut self, data: &[u8]) -> Result<CompressedStream> {
        let chunk_bytes = self.codec.config().chunk_bytes;
        let mut records = Vec::with_capacity(data.len() / chunk_bytes + 1);
        let mut slot = std::mem::take(&mut self.encoded_scratch);
        let mut chunks = data.chunks_exact(chunk_bytes);
        for chunk in &mut chunks {
            {
                // Split borrow: the codec is read-only while the scratch
                // mutates.
                let Self { codec, scratch, .. } = self;
                codec.encode_chunk_into(chunk, scratch, &mut slot)?;
            }
            records.push(self.record_for_mut(&mut slot)?);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            records.push(self.raw_tail_record(tail));
        }
        self.encoded_scratch = slot;
        Ok(CompressedStream {
            config: *self.codec.config(),
            records,
        })
    }
}

/// Stream decompressor: rebuilds the dictionary from `NewBasis` records in
/// stream order, so it stays synchronized with the compressor without any
/// out-of-band communication.
#[derive(Debug, Clone)]
pub struct GdDecompressor {
    config: GdConfig,
    dictionary: BasisDictionary,
    stats: CompressionStats,
    clock: u64,
    /// What each identifier restores to, so that a record costs a copy, an
    /// OR and a bit flip rather than a reconstruction (one shard: the
    /// dictionary is unsharded).
    cache: ChunkCache,
}

impl GdDecompressor {
    /// Builds a decompressor for the given configuration with an empty
    /// dictionary.
    pub fn new(config: &GdConfig) -> Result<Self> {
        Ok(Self {
            config: *config,
            dictionary: BasisDictionary::new(config.dictionary_capacity()),
            stats: CompressionStats::new(),
            clock: 0,
            cache: ChunkCache::new(config, 1)?,
        })
    }

    /// Builds a decompressor with a pre-populated dictionary (static table).
    pub fn with_dictionary(config: &GdConfig, dictionary: BasisDictionary) -> Result<Self> {
        Ok(Self {
            config: *config,
            dictionary,
            stats: CompressionStats::new(),
            clock: 0,
            cache: ChunkCache::new(config, 1)?,
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }

    /// Decompresses one record into original bytes.
    pub fn decompress_record(&mut self, record: &Record) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decompress_record_into(record, &mut out)?;
        Ok(out)
    }

    /// The recycling form of [`Self::decompress_record`]: *appends* the
    /// restored bytes to `out`, through the decompressor's [`ChunkCache`].
    /// This is the per-record primitive behind [`Self::decompress_batch`].
    pub fn decompress_record_into(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<()> {
        self.clock += 1;
        match record {
            Record::NewBasis {
                extra,
                deviation,
                basis,
            } => {
                // Mirror the compressor's dictionary update so that later Ref
                // records resolve to the same identifiers.
                let learned = self.dictionary.insert(basis.clone(), self.clock)?;
                if !learned.already_known {
                    self.cache.invalidate(0, learned.id);
                }
                let carried = Carried::Record(extra);
                self.cache
                    .emit(0, learned.id, basis, *deviation, carried, out)?;
            }
            Record::Ref {
                extra,
                deviation,
                id,
            } => {
                let Some(basis) = self.dictionary.lookup_id_ref(*id, self.clock, true) else {
                    self.stats.decode_failures += 1;
                    return Err(GdError::UnknownIdentifier(*id));
                };
                let carried = Carried::Record(extra);
                self.cache.emit(0, *id, basis, *deviation, carried, out)?;
            }
            Record::RawTail { bytes } => out.extend_from_slice(bytes),
        }
        self.stats.chunks_decoded += 1;
        Ok(())
    }

    /// Decompresses a whole stream.
    ///
    /// Delegates to [`Self::decompress_batch`].
    pub fn decompress(&mut self, stream: &CompressedStream) -> Result<Vec<u8>> {
        self.decompress_batch(stream)
    }

    /// Decompresses a whole stream, symmetric to
    /// [`GdCompressor::compress_batch`]: every record is emitted from the
    /// decompressor's [`ChunkCache`], so steady-state decoding is
    /// allocation-free apart from the single output buffer. Byte-for-byte
    /// and statistics-for-statistics equivalent to the per-record loop
    /// (enforced by the property-test suite).
    pub fn decompress_batch(&mut self, stream: &CompressedStream) -> Result<Vec<u8>> {
        if stream.config.m != self.config.m
            || stream.config.chunk_bytes != self.config.chunk_bytes
            || stream.config.id_bits != self.config.id_bits
        {
            return Err(GdError::InvalidConfig(
                "stream was compressed with a different configuration".into(),
            ));
        }
        let mut out = Vec::with_capacity(stream.records.len() * self.config.chunk_bytes);
        for record in &stream.records {
            self.decompress_record_into(record, &mut out)?;
        }
        Ok(out)
    }
}

/// Convenience one-shot API: compress a buffer with a fresh dictionary.
pub fn compress(config: &GdConfig, data: &[u8]) -> Result<CompressedStream> {
    GdCompressor::new(config)?.compress(data)
}

/// Convenience one-shot API: decompress a stream with a fresh dictionary.
pub fn decompress(stream: &CompressedStream) -> Result<Vec<u8>> {
    GdDecompressor::new(&stream.config)?.decompress(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_config() -> GdConfig {
        // m = 3: 1-byte chunks (7 code bits + 1 carried bit), 4-bit ids.
        GdConfig::for_parameters(3, 4).unwrap()
    }

    #[test]
    fn chunk_codec_roundtrip_paper_params() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let chunk: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(17).wrapping_add(3))
            .collect();
        let enc = codec.encode_chunk(&chunk).unwrap();
        assert_eq!(enc.extra.len(), 1);
        assert_eq!(enc.basis.len(), 247);
        assert!(enc.deviation < 256);
        assert_eq!(codec.decode_chunk(&enc).unwrap(), chunk);
    }

    #[test]
    fn scratch_encode_matches_reference_encode() {
        for config in [
            GdConfig::paper_default(),
            small_config(),
            GdConfig::for_parameters(5, 6).unwrap(),
        ] {
            let codec = ChunkCodec::new(&config).unwrap();
            let mut scratch = EncodeScratch::new();
            for seed in 0..64u8 {
                let chunk: Vec<u8> = (0..config.chunk_bytes)
                    .map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed ^ 0x5A))
                    .collect();
                let reference = codec.encode_chunk(&chunk).unwrap();
                let fast = codec.encode_chunk_with(&chunk, &mut scratch).unwrap();
                assert_eq!(fast, reference, "m = {}, seed = {seed}", config.m);
            }
        }
    }

    #[test]
    fn encode_chunks_splits_batches_and_returns_tail() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let mut scratch = EncodeScratch::new();
        let mut data = Vec::new();
        for i in 0..10u8 {
            data.extend_from_slice(&[i; 32]);
        }
        data.extend_from_slice(&[1, 2, 3]);
        let (encoded, tail) = codec.encode_chunks(&data, &mut scratch).unwrap();
        assert_eq!(encoded.len(), 10);
        assert_eq!(tail, &[1, 2, 3]);
        for (i, enc) in encoded.iter().enumerate() {
            assert_eq!(
                *enc,
                codec.encode_chunk(&data[i * 32..(i + 1) * 32]).unwrap(),
                "chunk {i}"
            );
        }
        // An empty buffer yields no chunks and an empty tail.
        let (encoded, tail) = codec.encode_chunks(&[], &mut scratch).unwrap();
        assert!(encoded.is_empty());
        assert!(tail.is_empty());
    }

    #[test]
    fn encode_chunks_into_recycles_output_entries() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let mut scratch = EncodeScratch::new();
        let mut out = Vec::new();

        let data_a: Vec<u8> = (0..32 * 7).map(|i| (i % 251) as u8).collect();
        codec
            .encode_chunks_into(&data_a, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), 7);

        // A smaller follow-up batch truncates and overwrites in place…
        let data_b: Vec<u8> = (0..32 * 3).map(|i| (i % 7) as u8).collect();
        let tail = codec
            .encode_chunks_into(&data_b, &mut scratch, &mut out)
            .unwrap();
        assert!(tail.is_empty());
        assert_eq!(out.len(), 3);
        for (i, enc) in out.iter().enumerate() {
            assert_eq!(
                *enc,
                codec.encode_chunk(&data_b[i * 32..(i + 1) * 32]).unwrap(),
                "chunk {i}"
            );
        }
    }

    #[test]
    fn compress_batch_equals_per_chunk_loop() {
        let config = GdConfig::paper_default();
        let mut data = Vec::new();
        for i in 0..200u32 {
            let mut chunk = [0u8; 32];
            chunk[0] = (i % 9) as u8;
            chunk[5] = (i % 3) as u8;
            data.extend_from_slice(&chunk);
        }
        data.extend_from_slice(b"odd tail");

        let mut batch = GdCompressor::new(&config).unwrap();
        let stream_batch = batch.compress_batch(&data).unwrap();

        let mut reference = GdCompressor::new(&config).unwrap();
        let chunk_bytes = config.chunk_bytes;
        let mut records = Vec::new();
        let mut offset = 0;
        while offset + chunk_bytes <= data.len() {
            records.push(
                reference
                    .compress_chunk(&data[offset..offset + chunk_bytes])
                    .unwrap(),
            );
            offset += chunk_bytes;
        }
        records.push(reference.raw_tail_record(&data[offset..]));

        assert_eq!(stream_batch.records, records);
        assert_eq!(batch.stats(), reference.stats());
        assert_eq!(decompress(&stream_batch).unwrap(), data);
    }

    #[test]
    fn chunk_codec_rejects_wrong_sizes() {
        let codec = ChunkCodec::new(&GdConfig::paper_default()).unwrap();
        assert!(codec.encode_chunk(&[0u8; 31]).is_err());
        assert!(codec.encode_chunk(&[0u8; 33]).is_err());
        let mut enc = codec.encode_chunk(&[0u8; 32]).unwrap();
        enc.extra = BitVec::zeros(2);
        assert!(codec.decode_chunk(&enc).is_err());
    }

    #[test]
    fn identical_chunks_share_a_basis_and_get_referenced() {
        let config = GdConfig::paper_default();
        let mut comp = GdCompressor::new(&config).unwrap();
        let chunk = [0x42u8; 32];
        let first = comp.compress_chunk(&chunk).unwrap();
        let second = comp.compress_chunk(&chunk).unwrap();
        assert!(matches!(first, Record::NewBasis { .. }));
        assert!(matches!(second, Record::Ref { .. }));
        assert_eq!(comp.stats().emitted_uncompressed, 1);
        assert_eq!(comp.stats().emitted_compressed, 1);
        assert!(comp.stats().is_consistent());
    }

    #[test]
    fn similar_chunks_differing_by_one_bit_share_a_basis() {
        // The whole point of GD: all single-bit perturbations of a codeword
        // deduplicate against the codeword's basis (256 chunks per basis for
        // the paper's parameters).
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        // Canonicalize an arbitrary chunk onto its codeword (deviation 0).
        let seed = codec.encode_chunk(&[0x5Au8; 32]).unwrap();
        let codeword_chunk = codec
            .decode_chunk(&EncodedChunk {
                extra: seed.extra.clone(),
                deviation: 0,
                basis: seed.basis.clone(),
                basis_hash: 0,
            })
            .unwrap();
        // A perturbed sibling: same basis, non-zero deviation.
        let perturbed_chunk = codec
            .decode_chunk(&EncodedChunk {
                extra: seed.extra.clone(),
                deviation: 42,
                basis: seed.basis.clone(),
                basis_hash: 0,
            })
            .unwrap();
        assert_ne!(codeword_chunk, perturbed_chunk);

        let mut comp = GdCompressor::new(&config).unwrap();
        let first = comp.compress_chunk(&codeword_chunk).unwrap();
        let second = comp.compress_chunk(&perturbed_chunk).unwrap();
        assert!(matches!(first, Record::NewBasis { .. }));
        assert!(
            matches!(second, Record::Ref { .. }),
            "near-duplicate must be compressed"
        );
    }

    #[test]
    fn compress_decompress_roundtrip_with_tail() {
        let config = GdConfig::paper_default();
        let mut data = Vec::new();
        for i in 0..100u32 {
            let mut chunk = [0u8; 32];
            chunk[0] = (i % 7) as u8;
            chunk[31] = 0xEE;
            data.extend_from_slice(&chunk);
        }
        data.extend_from_slice(b"tail-bytes"); // partial chunk
        let stream = compress(&config, &data).unwrap();
        assert!(matches!(
            stream.records.last(),
            Some(Record::RawTail { .. })
        ));
        let out = decompress(&stream).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn compression_reduces_size_for_redundant_data() {
        let config = GdConfig::paper_default();
        let data = vec![0xABu8; 32 * 1000];
        let mut comp = GdCompressor::new(&config).unwrap();
        let stream = comp.compress(&data).unwrap();
        let ratio = stream.serialized_len() as f64 / data.len() as f64;
        assert!(
            ratio < 0.15,
            "expected strong compression, got ratio {ratio}"
        );
        assert!(comp.stats().compression_ratio().unwrap() < 0.15);
    }

    #[test]
    fn serialization_roundtrip() {
        let config = GdConfig::paper_default();
        let mut data = Vec::new();
        for i in 0..50u8 {
            data.extend_from_slice(&[i % 5; 32]);
        }
        data.extend_from_slice(&[1, 2, 3]);
        let stream = compress(&config, &data).unwrap();
        let bytes = stream.to_bytes();
        assert_eq!(bytes.len(), stream.serialized_len());
        let parsed = CompressedStream::from_bytes(&bytes).unwrap();
        // tofino_padding_bits is not part of the wire format.
        assert_eq!(parsed.records, stream.records);
        assert_eq!(decompress(&parsed).unwrap(), data);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(CompressedStream::from_bytes(&[]).is_err());
        assert!(CompressedStream::from_bytes(&[0u8; 4]).is_err());
        let config = small_config();
        let stream = compress(&config, &[0u8; 8]).unwrap();
        let mut bytes = stream.to_bytes();
        bytes[0] ^= 0xFF; // break magic
        assert!(CompressedStream::from_bytes(&bytes).is_err());
        // Truncated payload.
        let bytes = stream.to_bytes();
        assert!(CompressedStream::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decompressor_rejects_mismatched_config() {
        let stream = compress(&small_config(), &[0u8; 4]).unwrap();
        let mut other = GdDecompressor::new(&GdConfig::paper_default()).unwrap();
        assert!(other.decompress(&stream).is_err());
    }

    #[test]
    fn unknown_identifier_fails_cleanly() {
        let config = small_config();
        let mut dec = GdDecompressor::new(&config).unwrap();
        let record = Record::Ref {
            extra: BitVec::zeros(1),
            deviation: 0,
            id: 3,
        };
        let err = dec.decompress_record(&record).unwrap_err();
        assert_eq!(err, GdError::UnknownIdentifier(3));
        assert_eq!(dec.stats().decode_failures, 1);
    }

    #[test]
    fn chunk_cache_emits_what_decode_parts_into_builds() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let mut cache = ChunkCache::new(&config, 2).unwrap();
        let mut scratch = DecodeScratch::new();
        let a = codec.encode_chunk(&[0x5Au8; 32]).unwrap();
        let b = codec.encode_chunk(&[0xC3u8; 32]).unwrap();
        let extra = BitVec::from_bools(&[true]);

        for (basis, deviation) in [(&a.basis, 0), (&a.basis, 255), (&b.basis, 7)] {
            // Slot (1, 3) is reassigned from `a` to `b` on the last round.
            if deviation == 7 {
                cache.invalidate(1, 3);
            }
            let mut expected = vec![0xEE];
            codec
                .decode_parts_into(&extra, deviation, basis, &mut scratch, &mut expected)
                .unwrap();
            let mut out = vec![0xEE];
            cache
                .emit(1, 3, basis, deviation, Carried::Record(&extra), &mut out)
                .unwrap();
            assert_eq!(out, expected, "deviation {deviation}");
            // The same carried bit off wire bytes: bit 3 of 0b0001_0000.
            let mut reader = BitReader::new(&[0x10]);
            reader.skip(3).unwrap();
            out.truncate(1);
            cache
                .emit(1, 3, basis, deviation, Carried::Wire(reader), &mut out)
                .unwrap();
            assert_eq!(out, expected, "deviation {deviation}, off the wire");
        }
        assert_eq!(cache.held_bytes(), 4 * 32, "shard 1 up to local id 3");

        // Errors append nothing: deviation out of range, carried bits short.
        let mut out = Vec::new();
        let err = cache.emit(1, 3, &b.basis, 256, Carried::Record(&extra), &mut out);
        assert!(matches!(err, Err(GdError::Malformed(_))));
        let exhausted = Carried::Wire(BitReader::new(&[]));
        let err = cache.emit(1, 3, &b.basis, 0, exhausted, &mut out);
        assert!(matches!(err, Err(GdError::Malformed(_))));
        let err = cache.emit(0, 0, &b.basis, 0, Carried::Record(&BitVec::new()), &mut out);
        assert!(matches!(err, Err(GdError::LengthMismatch { .. })));
        assert!(out.is_empty());
    }

    #[test]
    fn static_dictionary_compresses_first_occurrence_too() {
        let config = GdConfig::paper_default();
        let chunk = [0x11u8; 32];
        // Pre-learn the basis.
        let codec = ChunkCodec::new(&config).unwrap();
        let enc = codec.encode_chunk(&chunk).unwrap();
        let mut dict = BasisDictionary::new(config.dictionary_capacity());
        dict.insert(enc.basis.clone(), 0).unwrap();

        let mut comp = GdCompressor::with_dictionary(&config, dict.clone()).unwrap();
        let record = comp.compress_chunk(&chunk).unwrap();
        assert!(matches!(record, Record::Ref { .. }));

        // And the decompressor with the same static dictionary can decode it.
        let mut dec = GdDecompressor::with_dictionary(&config, dict).unwrap();
        assert_eq!(dec.decompress_record(&record).unwrap(), chunk);
    }

    #[test]
    fn stats_bytes_track_payload_sizes() {
        let config = GdConfig::paper_default();
        let mut comp = GdCompressor::new(&config).unwrap();
        let chunk = [9u8; 32];
        comp.compress_chunk(&chunk).unwrap(); // NewBasis: 8+1+247 bits -> 32 B
        comp.compress_chunk(&chunk).unwrap(); // Ref: 8+1+15 bits -> 3 B
        assert_eq!(comp.stats().bytes_in, 64);
        assert_eq!(comp.stats().bytes_out, 32 + 3);
    }

    #[test]
    fn payload_bits_accounting_matches_record_mix() {
        let config = GdConfig::paper_default();
        let mut data = Vec::new();
        for _ in 0..10 {
            data.extend_from_slice(&[7u8; 32]);
        }
        let stream = compress(&config, &data).unwrap();
        // 1 NewBasis + 9 Refs.
        let expected = (2 + 8 + 1 + 247) + 9 * (2 + 8 + 1 + 15);
        assert_eq!(stream.payload_bits(), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_arbitrary_data_small_config(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let config = small_config();
            let stream = compress(&config, &data).unwrap();
            prop_assert_eq!(decompress(&stream).unwrap(), data);
        }

        #[test]
        fn roundtrip_arbitrary_data_paper_config(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let config = GdConfig::paper_default();
            let stream = compress(&config, &data).unwrap();
            prop_assert_eq!(decompress(&stream).unwrap(), data.clone());
            // Serialization also round-trips.
            let parsed = CompressedStream::from_bytes(&stream.to_bytes()).unwrap();
            prop_assert_eq!(decompress(&parsed).unwrap(), data);
        }

        #[test]
        fn compressed_never_larger_than_one_new_basis_per_chunk(
            chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 32), 1..20)
        ) {
            let config = GdConfig::paper_default();
            let data: Vec<u8> = chunks.concat();
            let stream = compress(&config, &data).unwrap();
            // Upper bound: every chunk is a NewBasis record.
            let worst = chunks.len() * (2 + 8 + 1 + 247);
            prop_assert!(stream.payload_bits() <= worst);
        }
    }
}
