//! LSB-first bit streams as required by DEFLATE.
//!
//! RFC 1951 packs data elements starting at the least-significant bit of each
//! byte; Huffman codes are emitted most-significant-bit first *within the
//! code* but the codes themselves fill bytes LSB-first. These helpers expose
//! exactly the two primitives the encoder and decoder need: `write_bits` /
//! `read_bits` for "normal" values (LSB-first) and explicit byte alignment
//! for stored blocks. A Huffman code goes through the same `write_bits`:
//! the encoder stores its codes already bit-reversed ([`reverse_bits`]), so
//! the LSB-first write puts the code's most significant bit first.

use crate::error::{DeflateError, Result};

/// LSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed to `out` (LSB = oldest).
    bit_buffer: u64,
    /// Number of valid bits in `bit_buffer`; below 32 between calls.
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends to an existing byte buffer (which must
    /// end on a byte boundary, as every byte buffer does). This is what lets
    /// the streaming entry points (`deflate_compress_into`,
    /// `gzip_compress_into`) reuse one caller-owned allocation across
    /// members instead of building and copying a fresh `Vec` per call.
    pub fn with_buffer(out: Vec<u8>) -> Self {
        Self {
            out,
            ..Self::default()
        }
    }

    /// Writes the low `count` bits of `value`, LSB first.
    pub fn write_bits(&mut self, value: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || value < (1 << count));
        self.bit_buffer |= (value as u64) << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 32 {
            self.out
                .extend_from_slice(&(self.bit_buffer as u32).to_le_bytes());
            self.bit_buffer >>= 32;
            self.bit_count -= 32;
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let bytes = self.bit_count.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bit_buffer.to_le_bytes()[..bytes]);
        self.bit_buffer = 0;
        self.bit_count = 0;
    }

    /// Appends whole bytes; the stream must be byte aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.bit_count, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Number of whole bytes produced so far (excluding a partial byte).
    pub fn byte_len(&self) -> usize {
        self.out.len() + (self.bit_count / 8) as usize
    }

    /// Finishes the stream, flushing any partial byte.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

/// Reverses the low `len` bits of `value` (`len <= 32`).
pub fn reverse_bits(value: u32, len: u32) -> u32 {
    match len {
        0 => 0,
        _ => value.reverse_bits() >> (32 - len),
    }
}

/// LSB-first bit reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte to load.
    pos: usize,
    bit_buffer: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            bit_buffer: 0,
            bit_count: 0,
        }
    }

    fn refill(&mut self) {
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buffer |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// Reads `count` bits, LSB first.
    pub fn read_bits(&mut self, count: u32) -> Result<u32> {
        debug_assert!(count <= 32);
        self.refill();
        if self.bit_count < count {
            return Err(DeflateError::UnexpectedEof);
        }
        let mask = if count == 32 {
            u32::MAX
        } else {
            (1u32 << count) - 1
        };
        let value = (self.bit_buffer as u32) & mask;
        self.bit_buffer >>= count;
        self.bit_count -= count;
        Ok(value)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Result<u32> {
        self.read_bits(1)
    }

    /// Discards bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let partial = self.bit_count % 8;
        self.bit_buffer >>= partial;
        self.bit_count -= partial;
    }

    /// Reads `len` whole bytes; the stream must be byte aligned.
    pub fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>> {
        debug_assert_eq!(self.bit_count % 8, 0, "read_bytes requires byte alignment");
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.read_bits(8)? as u8);
        }
        Ok(out)
    }

    /// True when every bit has been consumed (ignoring up to 7 trailing
    /// padding bits in the final byte).
    pub fn is_exhausted(&mut self) -> bool {
        self.refill();
        self.bit_count < 8 && self.pos >= self.data.len()
    }

    /// Number of input bytes fully or partially consumed so far. Exact when
    /// the reader is byte aligned (call [`align_to_byte`](Self::align_to_byte)
    /// first); used by the gzip container to locate its trailer.
    pub fn bytes_consumed(&self) -> usize {
        self.pos - (self.bit_count as usize) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_lsb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b1, 1);
        w.write_bits(0xABCD, 16);
        w.write_bits(0x3, 2);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
    }

    #[test]
    fn first_written_bit_is_lsb_of_first_byte() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // a single 1 bit
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b0000_0001]);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
        assert_eq!(reverse_bits(0, 5), 0);
    }

    #[test]
    fn huffman_codes_are_written_msb_first() {
        // A 2-bit code 0b10 must appear MSB-first in the stream: reading the
        // stream bit by bit yields 1 then 0. The encoder gets there by
        // storing the code reversed and writing it LSB-first.
        let mut w = BitWriter::new();
        w.write_bits(reverse_bits(0b10, 2), 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit().unwrap(), 1); // MSB of the code first
        assert_eq!(r.read_bit().unwrap(), 0);
    }

    #[test]
    fn long_runs_of_odd_width_writes_keep_every_bit() {
        // Crosses the 32-bit flush boundary at every phase.
        let widths = [1u32, 7, 13, 15, 28, 32, 3, 20, 31, 5];
        let mut w = BitWriter::new();
        for i in 0..500u32 {
            let width = widths[i as usize % widths.len()];
            let value = i.wrapping_mul(2654435761) & (u32::MAX >> (32 - width));
            w.write_bits(value, width);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for i in 0..500u32 {
            let width = widths[i as usize % widths.len()];
            let value = i.wrapping_mul(2654435761) & (u32::MAX >> (32 - width));
            assert_eq!(r.read_bits(width).unwrap(), value, "write {i}");
        }
    }

    #[test]
    fn alignment_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_to_byte();
        w.write_bytes(&[0xDE, 0xAD]);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x01, 0xDE, 0xAD]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit().unwrap(), 1);
        r.align_to_byte();
        assert_eq!(r.read_bytes(2).unwrap(), vec![0xDE, 0xAD]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn reading_past_the_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
        let mut r = BitReader::new(&[]);
        assert!(r.read_bit().is_err());
        assert!(r.is_exhausted());
    }

    #[test]
    fn byte_len_tracks_flushed_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0xFF, 8);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0x1, 2);
        assert_eq!(w.byte_len(), 1, "partial byte not flushed yet");
    }
}
