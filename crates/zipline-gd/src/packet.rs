//! ZipLine packet payload formats.
//!
//! Section 5 of the paper defines three packet types:
//!
//! 1. **regular, yet unprocessed packets** — any Ethernet packet entering the
//!    switch;
//! 2. **processed, but uncompressed packets** — syndrome + basis (+ carried
//!    bits + hardware alignment padding);
//! 3. **processed and compressed packets** — syndrome + identifier
//!    (+ carried bits).
//!
//! ZipLine settles on Ethernet-based framing; this module defines the
//! EtherType values the reproduction uses to distinguish the processed
//! types, and bit-exact serialization of the processed payloads, with size
//! accounting that reproduces the padding overhead discussed in the paper
//! (the 3 % "no table" overhead of Figure 3).

use crate::bits::{BitReader, BitVec};
use crate::codec::EncodedChunk;
use crate::config::GdConfig;
use crate::error::{GdError, Result};
use serde::{Deserialize, Serialize};

/// EtherType carried by processed-but-uncompressed (type 2) frames.
/// 0x88B5 is the IEEE 802 local experimental EtherType 1.
pub const ETHERTYPE_ZIPLINE_UNCOMPRESSED: u16 = 0x88B5;
/// EtherType carried by processed-and-compressed (type 3) frames.
/// 0x88B6 is the IEEE 802 local experimental EtherType 2.
pub const ETHERTYPE_ZIPLINE_COMPRESSED: u16 = 0x88B6;

/// The three ZipLine packet types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketType {
    /// Type 1: regular, unprocessed packet.
    Raw,
    /// Type 2: processed but uncompressed (syndrome + basis).
    Uncompressed,
    /// Type 3: processed and compressed (syndrome + identifier).
    Compressed,
}

impl PacketType {
    /// Classifies an EtherType value.
    pub fn from_ethertype(ethertype: u16) -> PacketType {
        match ethertype {
            ETHERTYPE_ZIPLINE_UNCOMPRESSED => PacketType::Uncompressed,
            ETHERTYPE_ZIPLINE_COMPRESSED => PacketType::Compressed,
            _ => PacketType::Raw,
        }
    }

    /// The EtherType a frame of this type carries; `None` for raw packets
    /// (they keep their original EtherType).
    pub fn ethertype(&self) -> Option<u16> {
        match self {
            PacketType::Raw => None,
            PacketType::Uncompressed => Some(ETHERTYPE_ZIPLINE_UNCOMPRESSED),
            PacketType::Compressed => Some(ETHERTYPE_ZIPLINE_COMPRESSED),
        }
    }

    /// The paper's numbering (1, 2, 3).
    pub fn number(&self) -> u8 {
        match self {
            PacketType::Raw => 1,
            PacketType::Uncompressed => 2,
            PacketType::Compressed => 3,
        }
    }
}

/// A ZipLine payload in one of the three forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZipLinePayload {
    /// Type 1: the raw chunk bytes.
    Raw(Vec<u8>),
    /// Type 2: syndrome + carried bits + basis.
    Uncompressed {
        /// The `m`-bit deviation (syndrome).
        deviation: u64,
        /// Carried-over bits not covered by the Hamming code.
        extra: BitVec,
        /// The `k`-bit basis.
        basis: BitVec,
    },
    /// Type 3: syndrome + carried bits + identifier.
    Compressed {
        /// The `m`-bit deviation (syndrome).
        deviation: u64,
        /// Carried-over bits not covered by the Hamming code.
        extra: BitVec,
        /// Identifier of the basis in the dictionary.
        id: u64,
    },
}

impl ZipLinePayload {
    /// The packet type of this payload.
    pub fn packet_type(&self) -> PacketType {
        match self {
            ZipLinePayload::Raw(_) => PacketType::Raw,
            ZipLinePayload::Uncompressed { .. } => PacketType::Uncompressed,
            ZipLinePayload::Compressed { .. } => PacketType::Compressed,
        }
    }

    /// Builds a type 2 payload from an encoded chunk.
    pub fn uncompressed_from_chunk(chunk: &EncodedChunk) -> Self {
        ZipLinePayload::Uncompressed {
            deviation: chunk.deviation,
            extra: chunk.extra.clone(),
            basis: chunk.basis.clone(),
        }
    }

    /// Builds a type 3 payload from an encoded chunk and its identifier.
    pub fn compressed_from_chunk(chunk: &EncodedChunk, id: u64) -> Self {
        ZipLinePayload::Compressed {
            deviation: chunk.deviation,
            extra: chunk.extra.clone(),
            id,
        }
    }

    /// Wire size in bits, including the hardware padding for type 2 payloads
    /// (matching [`GdConfig::uncompressed_payload_bits`] /
    /// [`GdConfig::compressed_payload_bits`]).
    pub fn wire_bits(&self, config: &GdConfig) -> usize {
        match self {
            ZipLinePayload::Raw(bytes) => bytes.len() * 8,
            ZipLinePayload::Uncompressed { .. } => config.uncompressed_payload_bits(),
            ZipLinePayload::Compressed { .. } => config.compressed_payload_bits(),
        }
    }

    /// Wire size in bytes as transmitted.
    pub fn wire_bytes(&self, config: &GdConfig) -> usize {
        self.wire_bits(config).div_ceil(8)
    }

    /// Serializes the payload to its on-the-wire byte representation.
    ///
    /// The layout mirrors the paper's header structure: the deviation comes
    /// first, then the carried bits, then the basis or identifier, then any
    /// alignment padding (zero bits). Raw payloads are passed through.
    ///
    /// Delegates to [`Self::encode_into`]; bulk callers (switch programs,
    /// the engine stream) should call that form directly with a reused
    /// scratch buffer.
    pub fn encode(&self, config: &GdConfig) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.wire_bytes(config));
        self.encode_into(config, &mut out)?;
        Ok(out)
    }

    /// The zero-copy form of [`Self::encode`]: clears `out` and writes the
    /// wire bytes into it, reusing its allocation. The bit fields are packed
    /// through a small byte-granular accumulator, so apart from `out` itself
    /// no buffer is ever allocated — one scratch `Vec` per worker makes the
    /// per-packet payload rewrite allocation-free.
    pub fn encode_into(&self, config: &GdConfig, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        match self {
            ZipLinePayload::Raw(bytes) => {
                out.extend_from_slice(bytes);
                Ok(())
            }
            ZipLinePayload::Uncompressed {
                deviation,
                extra,
                basis,
            } => {
                self.check_fields(config, extra, Some(basis), None)?;
                let mut packer = BytePacker::new(out);
                packer.write_bits(*deviation, config.m as usize);
                packer.write_bitvec(extra);
                packer.write_bitvec(basis);
                let mut padding = config.tofino_padding_bits as usize;
                while padding > 0 {
                    let take = padding.min(64);
                    packer.write_bits(0, take);
                    padding -= take;
                }
                packer.finish();
                Ok(())
            }
            ZipLinePayload::Compressed {
                deviation,
                extra,
                id,
            } => {
                self.check_fields(config, extra, None, Some(*id))?;
                let mut packer = BytePacker::new(out);
                packer.write_bits(*deviation, config.m as usize);
                packer.write_bitvec(extra);
                packer.write_bits(*id, config.id_bits as usize);
                packer.finish();
                Ok(())
            }
        }
    }

    /// Parses a payload of the given packet type.
    pub fn decode(config: &GdConfig, packet_type: PacketType, bytes: &[u8]) -> Result<Self> {
        match packet_type {
            PacketType::Raw => Ok(ZipLinePayload::Raw(bytes.to_vec())),
            PacketType::Uncompressed => {
                let mut fields = PayloadFields::locate(config, packet_type, bytes)?;
                Ok(ZipLinePayload::Uncompressed {
                    deviation: fields.deviation,
                    extra: fields.carried.read_bitvec(config.extra_bits())?,
                    basis: fields.tail.read_bitvec(config.k())?,
                })
            }
            PacketType::Compressed => {
                let mut fields = PayloadFields::locate(config, packet_type, bytes)?;
                Ok(ZipLinePayload::Compressed {
                    deviation: fields.deviation,
                    extra: fields.carried.read_bitvec(config.extra_bits())?,
                    id: fields.tail.read_bits(config.id_bits as usize)?,
                })
            }
        }
    }

    fn check_fields(
        &self,
        config: &GdConfig,
        extra: &BitVec,
        basis: Option<&BitVec>,
        id: Option<u64>,
    ) -> Result<()> {
        if extra.len() != config.extra_bits() {
            return Err(GdError::LengthMismatch {
                expected: config.extra_bits(),
                actual: extra.len(),
            });
        }
        if let Some(basis) = basis {
            if basis.len() != config.k() {
                return Err(GdError::LengthMismatch {
                    expected: config.k(),
                    actual: basis.len(),
                });
            }
        }
        if let Some(id) = id {
            if config.id_bits < 64 && id >> config.id_bits != 0 {
                return Err(GdError::IdentifierOverflow {
                    id,
                    bits: config.id_bits,
                });
            }
        }
        Ok(())
    }
}

/// The fields of a processed (type 2 / type 3) payload, located on the wire
/// bytes but not copied out of them: what [`ZipLinePayload::decode`]
/// materialises, and what a decoder that needs no owned payload (the
/// engine's restore path) reads directly.
#[derive(Debug, Clone)]
pub struct PayloadFields<'a> {
    /// The `m`-bit deviation (syndrome).
    pub deviation: u64,
    /// Positioned at the first of the `extra_bits` carried bits.
    pub carried: BitReader<'a>,
    /// Positioned behind the carried bits: at the `k`-bit basis (type 2) or
    /// the `id_bits`-bit identifier (type 3).
    pub tail: BitReader<'a>,
}

impl<'a> PayloadFields<'a> {
    /// Checks the payload length for its type and locates the fields. Once
    /// this returns, reading `extra_bits` bits from `carried` and the basis
    /// or identifier from `tail` cannot run off the end of `bytes`.
    #[inline]
    pub fn locate(config: &GdConfig, packet_type: PacketType, bytes: &'a [u8]) -> Result<Self> {
        let expected = match packet_type {
            PacketType::Raw => {
                return Err(GdError::Malformed(
                    "type 1 payloads carry no processed fields".into(),
                ))
            }
            PacketType::Uncompressed => config.uncompressed_payload_bytes(),
            PacketType::Compressed => config.compressed_payload_bytes(),
        };
        if bytes.len() < expected {
            return Err(GdError::Malformed(format!(
                "type {} payload too short: {} bytes, expected {expected}",
                packet_type.number(),
                bytes.len()
            )));
        }
        let mut carried = BitReader::new(bytes);
        let deviation = carried.read_bits(config.m as usize)?;
        let mut tail = carried.clone();
        tail.skip(config.extra_bits())?;
        Ok(Self {
            deviation,
            carried,
            tail,
        })
    }
}

/// Byte-granular bit accumulator behind [`ZipLinePayload::encode_into`]:
/// fields are shifted into a small accumulator and whole bytes are pushed to
/// the output as they fill, so serialization needs no intermediate bit
/// buffer. MSB-first, matching [`crate::bits::BitWriter`] bit-for-bit.
struct BytePacker<'a> {
    out: &'a mut Vec<u8>,
    /// Pending bits, right-aligned; always fewer than 8 after a write.
    acc: u128,
    nbits: usize,
}

impl<'a> BytePacker<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the lowest `width` bits of `value`, most significant first.
    fn write_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        // At most 7 pending bits + 64 new ones: fits comfortably in u128.
        self.acc = (self.acc << width) | u128::from(value);
        self.nbits += width;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
        self.acc &= (1u128 << self.nbits) - 1;
    }

    /// Appends all bits of `bits`, 64 at a time.
    fn write_bitvec(&mut self, bits: &BitVec) {
        let mut pos = 0;
        while pos < bits.len() {
            let take = (bits.len() - pos).min(64);
            self.write_bits(bits.get_bits(pos, take), take);
            pos += take;
        }
    }

    /// Flushes the trailing partial byte, zero-padded on the right.
    fn finish(self) {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ChunkCodec;

    #[test]
    fn packet_type_numbers_match_paper() {
        assert_eq!(PacketType::Raw.number(), 1);
        assert_eq!(PacketType::Uncompressed.number(), 2);
        assert_eq!(PacketType::Compressed.number(), 3);
    }

    #[test]
    fn ethertype_classification_roundtrip() {
        assert_eq!(PacketType::from_ethertype(0x0800), PacketType::Raw);
        assert_eq!(
            PacketType::from_ethertype(ETHERTYPE_ZIPLINE_UNCOMPRESSED),
            PacketType::Uncompressed
        );
        assert_eq!(
            PacketType::from_ethertype(ETHERTYPE_ZIPLINE_COMPRESSED),
            PacketType::Compressed
        );
        assert_eq!(PacketType::Raw.ethertype(), None);
        assert_eq!(PacketType::Uncompressed.ethertype(), Some(0x88B5));
        assert_eq!(PacketType::Compressed.ethertype(), Some(0x88B6));
    }

    #[test]
    fn wire_sizes_match_paper_parameters() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let enc = codec.encode_chunk(&[0x77u8; 32]).unwrap();

        let raw = ZipLinePayload::Raw(vec![0u8; 32]);
        assert_eq!(raw.wire_bytes(&config), 32);

        let unc = ZipLinePayload::uncompressed_from_chunk(&enc);
        assert_eq!(unc.wire_bits(&config), 264);
        assert_eq!(unc.wire_bytes(&config), 33);
        assert_eq!(unc.encode(&config).unwrap().len(), 33);

        let comp = ZipLinePayload::compressed_from_chunk(&enc, 0x1234);
        assert_eq!(comp.wire_bits(&config), 24);
        assert_eq!(comp.wire_bytes(&config), 3);
        assert_eq!(comp.encode(&config).unwrap().len(), 3);
    }

    #[test]
    fn uncompressed_payload_roundtrip() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let chunk: Vec<u8> = (0..32u8).collect();
        let enc = codec.encode_chunk(&chunk).unwrap();
        let payload = ZipLinePayload::uncompressed_from_chunk(&enc);
        let bytes = payload.encode(&config).unwrap();
        let parsed = ZipLinePayload::decode(&config, PacketType::Uncompressed, &bytes).unwrap();
        assert_eq!(parsed, payload);
        // And the parsed payload still decodes to the original chunk.
        if let ZipLinePayload::Uncompressed {
            deviation,
            extra,
            basis,
        } = parsed
        {
            let decoded = codec
                .decode_chunk(&EncodedChunk {
                    extra,
                    deviation,
                    basis,
                    basis_hash: 0,
                })
                .unwrap();
            assert_eq!(decoded, chunk);
        } else {
            unreachable!();
        }
    }

    #[test]
    fn compressed_payload_roundtrip() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let enc = codec.encode_chunk(&[0xCDu8; 32]).unwrap();
        let payload = ZipLinePayload::compressed_from_chunk(&enc, 32_767);
        let bytes = payload.encode(&config).unwrap();
        let parsed = ZipLinePayload::decode(&config, PacketType::Compressed, &bytes).unwrap();
        assert_eq!(parsed, payload);
    }

    #[test]
    fn raw_payload_passthrough() {
        let config = GdConfig::paper_default();
        let payload = ZipLinePayload::Raw(vec![1, 2, 3, 4]);
        assert_eq!(payload.encode(&config).unwrap(), vec![1, 2, 3, 4]);
        let parsed = ZipLinePayload::decode(&config, PacketType::Raw, &[1, 2, 3, 4]).unwrap();
        assert_eq!(parsed, payload);
        assert_eq!(payload.packet_type(), PacketType::Raw);
    }

    #[test]
    fn encode_into_matches_bitwriter_reference_and_reuses_buffer() {
        use crate::bits::BitWriter;
        for config in [
            GdConfig::paper_default(),
            GdConfig::for_parameters(3, 4).unwrap(),
            GdConfig::for_parameters(5, 6).unwrap(),
        ] {
            let codec = ChunkCodec::new(&config).unwrap();
            let chunk: Vec<u8> = (0..config.chunk_bytes)
                .map(|i| (i * 37 + 11) as u8)
                .collect();
            let enc = codec.encode_chunk(&chunk).unwrap();

            // Type 2 reference via the general-purpose BitWriter.
            let unc = ZipLinePayload::uncompressed_from_chunk(&enc);
            let mut w = BitWriter::new();
            w.write_bits(enc.deviation, config.m as usize);
            w.write_bitvec(&enc.extra);
            w.write_bitvec(&enc.basis);
            for _ in 0..config.tofino_padding_bits {
                w.write_bit(false);
            }
            let reference = w.into_bytes();
            let mut scratch = vec![0xFFu8; 64]; // stale contents must be cleared
            unc.encode_into(&config, &mut scratch).unwrap();
            assert_eq!(scratch, reference, "type 2, m = {}", config.m);
            assert_eq!(scratch, unc.encode(&config).unwrap());

            // Type 3 reference.
            let comp = ZipLinePayload::compressed_from_chunk(&enc, 3);
            let mut w = BitWriter::new();
            w.write_bits(enc.deviation, config.m as usize);
            w.write_bitvec(&enc.extra);
            w.write_bits(3, config.id_bits as usize);
            let reference = w.into_bytes();
            comp.encode_into(&config, &mut scratch).unwrap();
            assert_eq!(scratch, reference, "type 3, m = {}", config.m);

            // Raw passthrough into the same reused buffer.
            let raw = ZipLinePayload::Raw(vec![9, 8, 7]);
            raw.encode_into(&config, &mut scratch).unwrap();
            assert_eq!(scratch, vec![9, 8, 7]);
        }
    }

    #[test]
    fn identifier_overflow_is_rejected() {
        let config = GdConfig::paper_default();
        let payload = ZipLinePayload::Compressed {
            deviation: 0,
            extra: BitVec::zeros(1),
            id: 1 << 15, // does not fit in 15 bits
        };
        assert!(matches!(
            payload.encode(&config),
            Err(GdError::IdentifierOverflow { .. })
        ));
    }

    #[test]
    fn field_length_mismatches_are_rejected() {
        let config = GdConfig::paper_default();
        let payload = ZipLinePayload::Uncompressed {
            deviation: 0,
            extra: BitVec::zeros(3), // should be 1
            basis: BitVec::zeros(247),
        };
        assert!(payload.encode(&config).is_err());
        let payload = ZipLinePayload::Uncompressed {
            deviation: 0,
            extra: BitVec::zeros(1),
            basis: BitVec::zeros(200), // should be 247
        };
        assert!(payload.encode(&config).is_err());
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let config = GdConfig::paper_default();
        assert!(ZipLinePayload::decode(&config, PacketType::Uncompressed, &[0u8; 10]).is_err());
        assert!(ZipLinePayload::decode(&config, PacketType::Compressed, &[0u8; 2]).is_err());
    }

    #[test]
    fn padding_bits_are_zero_on_the_wire() {
        let config = GdConfig::paper_default();
        let codec = ChunkCodec::new(&config).unwrap();
        let enc = codec.encode_chunk(&[0xFFu8; 32]).unwrap();
        let bytes = ZipLinePayload::uncompressed_from_chunk(&enc)
            .encode(&config)
            .unwrap();
        // Total 264 bits; the last 8 are alignment padding and must be zero.
        assert_eq!(bytes.len(), 33);
        assert_eq!(bytes[32], 0);
    }

    #[test]
    fn small_parameter_payloads() {
        // m = 3 / 4-bit ids: type 3 payload = 3 + 1 + 4 = 8 bits = 1 byte.
        let config = GdConfig::for_parameters(3, 4).unwrap();
        let codec = ChunkCodec::new(&config).unwrap();
        let enc = codec.encode_chunk(&[0b1010_1010]).unwrap();
        let comp = ZipLinePayload::compressed_from_chunk(&enc, 5);
        assert_eq!(comp.wire_bytes(&config), 1);
        let bytes = comp.encode(&config).unwrap();
        assert_eq!(bytes.len(), 1);
        let parsed = ZipLinePayload::decode(&config, PacketType::Compressed, &bytes).unwrap();
        assert_eq!(parsed, comp);
    }
}
