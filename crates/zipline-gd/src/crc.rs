//! Generic CRC engine matching the convention used by the paper.
//!
//! ZipLine computes Hamming syndromes with the CRC unit of the Tofino chip.
//! The paper defines the CRC of a block `B` (with `b_{n-1}` the MSB /
//! coefficient of `x^{n-1}`) as the residue of the polynomial division of
//! `B(x)` by the generator `g(x)`:
//!
//! ```text
//! CRC(B) = B(x) mod g(x)
//! ```
//!
//! Note that — unlike most network CRCs — the message is *not* pre-multiplied
//! by `x^m`. Table 2 of the paper fixes this convention: with
//! `g(x) = x^3 + x + 1`, `CRC-3(0000001) = 001` (i.e. `x^0 mod g = 1`).
//!
//! Three implementations are provided and cross-checked by property tests:
//!
//! * a bit-serial reference (any message length, any `m <= 32`) — the ground
//!   truth every fast path is checked against;
//! * a slicing-by-8 **word-parallel** path ([`CrcEngine::checksum_words`])
//!   that consumes the packed `u64` words of a [`BitVec`] directly — 64
//!   message bits per step, valid for every `m <= 32` and any bit length.
//!   This is what the GD data path ([`crate::hamming`], [`crate::codec`])
//!   uses to compute Hamming syndromes;
//! * the same slicing-by-8 step over a plain byte slice
//!   ([`CrcEngine::compute_bytes`], `m >= 8`) — the record checksum of the
//!   socket and journal framing, and the ablation benchmarked by
//!   `zipline-bench` (the Tofino CRC extern consumes whole containers per
//!   clock).
//!
//! # Word-path conventions
//!
//! [`checksum_words`](CrcEngine::checksum_words) reads words in
//! [`BitVec`] order: word 0 holds the first 64 bits of
//! the message with the first bit in the most significant position, i.e. a
//! word *is* the corresponding 64-coefficient slice of the message
//! polynomial. A trailing partial word must be left-aligned with its unused
//! low bits zero (the `BitVec` masked-tail invariant).

use crate::bits::BitVec;
use crate::error::{GdError, Result};
use crate::poly::Gf2Poly;

/// Description of a CRC-m in the paper's convention.
///
/// `poly_low` is the generator polynomial *without* its leading `x^m` term —
/// exactly the "parameter for CRC-m" column of Table 1 that gets written into
/// the Tofino CRC extern configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcSpec {
    /// Width `m` of the CRC in bits (1..=32).
    pub width: u32,
    /// Generator polynomial with the `x^m` term removed.
    pub poly_low: u64,
}

impl CrcSpec {
    /// Creates a spec from the width and the low part of the polynomial.
    pub fn new(width: u32, poly_low: u64) -> Result<Self> {
        if width == 0 || width > 32 {
            return Err(GdError::InvalidGeneratorPolynomial(format!(
                "CRC width {width} out of range 1..=32"
            )));
        }
        if width < 64 && poly_low >> width != 0 {
            return Err(GdError::InvalidGeneratorPolynomial(format!(
                "poly_low {poly_low:#x} has bits above x^{width}"
            )));
        }
        Ok(Self { width, poly_low })
    }

    /// Creates a spec from a full generator polynomial (including `x^m`).
    pub fn from_full_poly(poly: Gf2Poly) -> Result<Self> {
        let width = poly.degree();
        if width == 0 {
            return Err(GdError::InvalidGeneratorPolynomial(
                "generator must have degree >= 1".into(),
            ));
        }
        let poly_low = poly.0 & !(1u64 << width);
        Self::new(width, poly_low)
    }

    /// Full generator polynomial, including the `x^m` term.
    pub fn full_poly(&self) -> Gf2Poly {
        Gf2Poly(self.poly_low | (1u64 << self.width))
    }

    /// Bit mask covering the `m` CRC bits.
    pub fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// A CRC engine for one [`CrcSpec`].
///
/// The engine pre-computes the slicing-by-8 tables shared by the word and
/// byte fast paths; the bit-serial path needs no state beyond the spec
/// itself.
#[derive(Debug, Clone)]
pub struct CrcEngine {
    spec: CrcSpec,
    /// Slicing-by-8 tables: `slice_table[j][v] = (v(x) · x^{8j}) mod g(x)`.
    ///
    /// Entries `j < 8` reduce the eight bytes of one message word; entries
    /// `j >= 8` fold the previous register (multiplied by `x^64`) into the
    /// new word, one register byte each. `8 + ceil(m / 8)` tables cover every
    /// supported width.
    slice_table: Vec<[u64; 256]>,
    /// `x_pow[t] = x^t mod g(x)` for `t < 64`, used to append a sub-word tail
    /// (or a run of zero bits) to the register in O(1).
    x_pow: [u64; 64],
}

impl CrcEngine {
    /// Builds an engine for `spec`.
    pub fn new(spec: CrcSpec) -> Self {
        let g = spec.full_poly();
        let register_bytes = spec.width.div_ceil(8) as usize;
        let mut slice_table = Vec::with_capacity(8 + register_bytes);
        for j in 0..8 + register_bytes {
            let base = Gf2Poly::x_pow_mod(8 * j as u64, g);
            let mut entries = [0u64; 256];
            for (v, slot) in entries.iter_mut().enumerate() {
                *slot = Gf2Poly(v as u64).mul(base).rem(g).0;
            }
            slice_table.push(entries);
        }

        let mut x_pow = [0u64; 64];
        for (t, slot) in x_pow.iter_mut().enumerate() {
            *slot = Gf2Poly::x_pow_mod(t as u64, g).0;
        }

        Self {
            spec,
            slice_table,
            x_pow,
        }
    }

    /// Convenience constructor from a full generator polynomial.
    pub fn from_full_poly(poly: Gf2Poly) -> Result<Self> {
        Ok(Self::new(CrcSpec::from_full_poly(poly)?))
    }

    /// The spec this engine implements.
    pub fn spec(&self) -> CrcSpec {
        self.spec
    }

    /// Width `m` in bits.
    pub fn width(&self) -> u32 {
        self.spec.width
    }

    /// Computes `CRC(bits) = bits(x) mod g(x)` with the bit-serial reference
    /// algorithm (works for any message length, including zero).
    pub fn compute_bits_serial(&self, bits: &BitVec) -> u64 {
        let g_full = self.spec.full_poly().0;
        let top = 1u64 << self.spec.width;
        let mut reg = 0u64;
        for bit in bits.iter() {
            reg = (reg << 1) | (bit as u64);
            if reg & top != 0 {
                reg ^= g_full;
            }
        }
        reg & self.spec.mask()
    }

    /// Computes the CRC of a bit sequence via the word-parallel slicing-by-8
    /// path ([`Self::checksum_words`]) — the default for the whole GD data
    /// path. Bit-exact with [`Self::compute_bits_serial`] for every width and
    /// length (enforced by the property-test suite).
    pub fn compute_bits(&self, bits: &BitVec) -> u64 {
        self.checksum_words(bits.words(), bits.len())
    }

    /// Reduces a polynomial of degree <= 63 modulo `g` with byte-table
    /// lookups.
    #[inline]
    fn reduce64(&self, mut poly: u64) -> u64 {
        let mut acc = 0u64;
        let mut j = 0;
        while poly != 0 {
            acc ^= self.slice_table[j][(poly & 0xFF) as usize];
            poly >>= 8;
            j += 1;
        }
        acc
    }

    /// One slicing-by-8 step: `(reg · x^64 + word) mod g`, consuming 64
    /// message bits (the word's MSB is the earliest bit).
    #[inline]
    fn advance_word(&self, reg: u64, word: u64) -> u64 {
        let t = &self.slice_table;
        // The eight message bytes: byte j of the word carries x^{8j}..x^{8j+7}.
        let mut acc = t[0][(word & 0xFF) as usize]
            ^ t[1][((word >> 8) & 0xFF) as usize]
            ^ t[2][((word >> 16) & 0xFF) as usize]
            ^ t[3][((word >> 24) & 0xFF) as usize]
            ^ t[4][((word >> 32) & 0xFF) as usize]
            ^ t[5][((word >> 40) & 0xFF) as usize]
            ^ t[6][((word >> 48) & 0xFF) as usize]
            ^ t[7][((word >> 56) & 0xFF) as usize];
        // The previous register, promoted by x^64: register byte i maps to
        // table 8 + i. For the Hamming widths (m <= 8) this is one lookup.
        let mut r = reg;
        let mut j = 8;
        while r != 0 {
            acc ^= self.slice_table[j][(r & 0xFF) as usize];
            r >>= 8;
            j += 1;
        }
        acc
    }

    /// Appends `count < 64` message bits held low-aligned in `tail`:
    /// `(reg · x^count + tail) mod g`.
    #[inline]
    fn advance_tail(&self, reg: u64, tail: u64, count: usize) -> u64 {
        debug_assert!(count < 64);
        if count == 0 {
            return reg;
        }
        // reg and x^count mod g both have degree < m <= 32, so the carry-less
        // product fits in 63 coefficient bits and one table reduction folds
        // it back under g.
        let promoted = Gf2Poly(reg).mul(Gf2Poly(self.x_pow[count])).0;
        self.reduce64(promoted) ^ self.reduce64(tail)
    }

    /// Computes the CRC of a `bit_len`-bit message stored as packed words in
    /// [`BitVec`] order (see the module docs for the
    /// exact convention) using slicing-by-8: 64 message bits per step, 9–12
    /// table lookups each. Works for every supported width `m <= 32`.
    ///
    /// This is the word-parallel fast path behind [`Self::compute_bits`];
    /// [`Self::compute_bits_serial`] is the cross-checked reference.
    ///
    /// # Panics
    /// Panics if `words` holds fewer than `bit_len` bits.
    pub fn checksum_words(&self, words: &[u64], bit_len: usize) -> u64 {
        assert!(
            bit_len <= words.len() * 64,
            "bit_len {bit_len} exceeds {} words",
            words.len()
        );
        let full_words = bit_len / 64;
        let mut reg = 0u64;
        for &word in &words[..full_words] {
            reg = self.advance_word(reg, word);
        }
        let tail_bits = bit_len % 64;
        if tail_bits != 0 {
            let tail = words[full_words] >> (64 - tail_bits);
            reg = self.advance_tail(reg, tail, tail_bits);
        }
        reg & self.spec.mask()
    }

    /// Computes the CRC of the bit range `[start, end)` of `bits` without
    /// materialising the sub-sequence — the allocation-free form of
    /// `compute_bits(&bits.slice(start..end))` used by the batch encoder.
    ///
    /// # Panics
    /// Panics if the range is reversed or out of bounds.
    pub fn checksum_bit_range(&self, bits: &BitVec, start: usize, end: usize) -> u64 {
        assert!(
            start <= end && end <= bits.len(),
            "bit range {start}..{end} out of bounds"
        );
        let words = bits.words();
        let offset = start % 64;
        let mut reg = 0u64;
        let mut pos = start;
        let mut i = start / 64;
        // Hoisted window loop: each 64-bit step is one or two word reads
        // (no per-step accessor call), sharing the fixed shift amount.
        while pos + 64 <= end {
            let mut window = words[i] << offset;
            if offset != 0 {
                window |= words[i + 1] >> (64 - offset);
            }
            reg = self.advance_word(reg, window);
            pos += 64;
            i += 1;
        }
        if pos < end {
            let count = end - pos;
            reg = self.advance_tail(reg, bits.get_bits(pos, count), count);
        }
        reg & self.spec.mask()
    }

    /// Appends `zeros` zero bits to a running CRC register:
    /// `(reg · x^zeros) mod g`. Used to compute parities
    /// (`CRC(message · x^m)`) without materialising a zero-padded copy of the
    /// message.
    pub fn checksum_append_zeros(&self, reg: u64, zeros: usize) -> u64 {
        let mut reg = reg;
        let mut remaining = zeros;
        while remaining >= 63 {
            reg = self.advance_tail(reg, 0, 63);
            remaining -= 63;
        }
        reg = self.advance_tail(reg, 0, remaining);
        reg & self.spec.mask()
    }

    /// Computes the CRC of a whole byte slice (message length = 8 × bytes)
    /// with the slicing-by-8 step of [`Self::checksum_words`]: eight bytes
    /// per step as one big-endian word (the first byte holds the earliest
    /// bits), the last `len % 8` bytes as a sub-word tail.
    ///
    /// For `m < 8` the engine falls back to the bit-serial path.
    pub fn compute_bytes(&self, bytes: &[u8]) -> u64 {
        if self.spec.width < 8 {
            return self.compute_bits_serial(&BitVec::from_bytes(bytes));
        }
        let mut reg = 0u64;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks_exact(8) yields 8 bytes");
            reg = self.advance_word(reg, u64::from_be_bytes(word));
        }
        let rest = words.remainder();
        let tail = rest.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        self.advance_tail(reg, tail, rest.len() * 8) & self.spec.mask()
    }

    /// Returns `CRC(x^i) = x^i mod g` — the CRC of the one-hot bit sequence
    /// whose only set bit is the coefficient of `x^i`. This is column `i` of
    /// the parity-check matrix `H` (see Table 2 of the paper).
    pub fn crc_of_monomial(&self, i: u64) -> u64 {
        Gf2Poly::x_pow_mod(i, self.spec.full_poly()).0
    }

    /// Checks the linearity property `CRC(A ⊕ B) = CRC(A) ⊕ CRC(B)` on the
    /// given operands (used by tests and by the switch-extern self-test).
    pub fn linearity_holds(&self, a: &BitVec, b: &BitVec) -> Result<bool> {
        let xored = a.xor(b)?;
        Ok(self.compute_bits(&xored) == (self.compute_bits(a) ^ self.compute_bits(b)))
    }
}

/// CRC specification table mirroring Table 1 of the paper: for each Hamming
/// code `(n, k)` the generator polynomial and the parameter to program into a
/// CRC-m unit.
///
/// The two `m = 9` rows of the printed table disagree with the polynomial
/// column under the "drop the x^m term" rule every other row follows; we take
/// the polynomial column as ground truth (see EXPERIMENTS.md).
pub mod table1 {
    use crate::poly::Gf2Poly;

    /// One row of Table 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Table1Row {
        /// Hamming parameter `m` (CRC width).
        pub m: u32,
        /// Code length `n = 2^m - 1`.
        pub n: u64,
        /// Message length `k = n - m`.
        pub k: u64,
        /// Exponents of the generator polynomial.
        pub generator_exponents: &'static [u32],
        /// The "parameter for CRC-m" printed in the paper.
        pub paper_crc_parameter: u64,
    }

    impl Table1Row {
        /// Full generator polynomial.
        pub fn generator(&self) -> Gf2Poly {
            Gf2Poly::from_exponents(self.generator_exponents)
        }

        /// CRC parameter derived from the generator (generator minus the
        /// leading `x^m` term).
        pub fn derived_crc_parameter(&self) -> u64 {
            self.generator().0 & !(1u64 << self.m)
        }
    }

    /// All rows of Table 1, in the paper's order.
    pub const ROWS: &[Table1Row] = &[
        Table1Row {
            m: 3,
            n: 7,
            k: 4,
            generator_exponents: &[3, 1, 0],
            paper_crc_parameter: 0x3,
        },
        Table1Row {
            m: 4,
            n: 15,
            k: 11,
            generator_exponents: &[4, 1, 0],
            paper_crc_parameter: 0x3,
        },
        Table1Row {
            m: 5,
            n: 31,
            k: 26,
            generator_exponents: &[5, 2, 0],
            paper_crc_parameter: 0x05,
        },
        Table1Row {
            m: 5,
            n: 31,
            k: 26,
            generator_exponents: &[5, 4, 2, 1, 0],
            paper_crc_parameter: 0x17,
        },
        Table1Row {
            m: 6,
            n: 63,
            k: 57,
            generator_exponents: &[6, 1, 0],
            paper_crc_parameter: 0x03,
        },
        Table1Row {
            m: 7,
            n: 127,
            k: 120,
            generator_exponents: &[7, 3, 0],
            paper_crc_parameter: 0x09,
        },
        Table1Row {
            m: 8,
            n: 255,
            k: 247,
            generator_exponents: &[8, 4, 3, 2, 0],
            paper_crc_parameter: 0x1D,
        },
        Table1Row {
            m: 9,
            n: 511,
            k: 502,
            generator_exponents: &[9, 4, 0],
            paper_crc_parameter: 0x00D,
        },
        Table1Row {
            m: 9,
            n: 511,
            k: 502,
            generator_exponents: &[9, 8, 7, 6, 5, 1, 0],
            paper_crc_parameter: 0x0F3,
        },
        Table1Row {
            m: 10,
            n: 1023,
            k: 1013,
            generator_exponents: &[10, 3, 0],
            paper_crc_parameter: 0x009,
        },
        Table1Row {
            m: 11,
            n: 2047,
            k: 2036,
            generator_exponents: &[11, 2, 0],
            paper_crc_parameter: 0x005,
        },
        Table1Row {
            m: 12,
            n: 4095,
            k: 4083,
            generator_exponents: &[12, 6, 4, 1, 0],
            paper_crc_parameter: 0x053,
        },
        Table1Row {
            m: 13,
            n: 8191,
            k: 8178,
            generator_exponents: &[13, 4, 3, 1, 0],
            paper_crc_parameter: 0x01B,
        },
        Table1Row {
            m: 14,
            n: 16383,
            k: 16369,
            generator_exponents: &[14, 8, 6, 1, 0],
            paper_crc_parameter: 0x143,
        },
        Table1Row {
            m: 15,
            n: 32767,
            k: 32752,
            generator_exponents: &[15, 1, 0],
            paper_crc_parameter: 0x003,
        },
    ];

    /// Returns the first (primary) row for a given `m`, if the paper lists
    /// one.
    pub fn primary_row(m: u32) -> Option<&'static Table1Row> {
        ROWS.iter().find(|r| r.m == m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc3() -> CrcEngine {
        CrcEngine::from_full_poly(Gf2Poly::from_exponents(&[3, 1, 0])).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(CrcSpec::new(0, 0).is_err());
        assert!(CrcSpec::new(33, 0).is_err());
        assert!(CrcSpec::new(3, 0x8).is_err()); // bit at x^3 must not be in poly_low
        let s = CrcSpec::new(3, 0x3).unwrap();
        assert_eq!(s.full_poly(), Gf2Poly(0b1011));
        assert_eq!(s.mask(), 0b111);
        assert!(CrcSpec::from_full_poly(Gf2Poly::ONE).is_err());
    }

    /// Table 2 (b) of the paper: CRC-3 of every one-hot 7-bit sequence.
    #[test]
    fn table2b_crc3_of_one_hot_sequences() {
        let engine = crc3();
        let expected = [
            (0b0000001u64, 0b001u64),
            (0b0000010, 0b010),
            (0b0000100, 0b100),
            (0b0001000, 0b011),
            (0b0010000, 0b110),
            (0b0100000, 0b111),
            (0b1000000, 0b101),
        ];
        for (seq, crc) in expected {
            let bits = BitVec::from_u64(seq, 7);
            assert_eq!(engine.compute_bits_serial(&bits), crc, "sequence {seq:07b}");
            assert_eq!(engine.compute_bits(&bits), crc, "sequence {seq:07b}");
        }
    }

    #[test]
    fn crc_of_monomial_matches_bit_serial() {
        let engine = crc3();
        for i in 0..7u64 {
            let mut bits = BitVec::zeros(7);
            bits.set(6 - i as usize, true); // coefficient of x^i
            assert_eq!(engine.crc_of_monomial(i), engine.compute_bits_serial(&bits));
        }
    }

    #[test]
    fn empty_and_zero_messages_have_zero_crc() {
        let engine = crc3();
        assert_eq!(engine.compute_bits_serial(&BitVec::new()), 0);
        assert_eq!(engine.compute_bits_serial(&BitVec::zeros(100)), 0);
    }

    #[test]
    fn crc_is_linear() {
        let engine = CrcEngine::from_full_poly(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap();
        let a = BitVec::from_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9A]);
        let b = BitVec::from_bytes(&[0xFF, 0x00, 0xAA, 0x55, 0x77]);
        assert!(engine.linearity_holds(&a, &b).unwrap());
    }

    #[test]
    fn compute_bytes_matches_bit_serial_for_crc8() {
        let engine = CrcEngine::from_full_poly(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap();
        let data: Vec<u8> = (0..=255u8).collect();
        for len in [0usize, 1, 2, 3, 31, 32, 255, 256] {
            let bytes = &data[..len];
            let serial = engine.compute_bits_serial(&BitVec::from_bytes(bytes));
            assert_eq!(serial, engine.compute_bytes(bytes), "length {len}");
        }
    }

    #[test]
    fn compute_bytes_matches_bit_serial_for_crc15() {
        let engine = CrcEngine::from_full_poly(Gf2Poly::from_exponents(&[15, 1, 0])).unwrap();
        let bytes: Vec<u8> = (0..200u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        assert_eq!(
            engine.compute_bits_serial(&BitVec::from_bytes(&bytes)),
            engine.compute_bytes(&bytes)
        );
    }

    #[test]
    fn compute_bytes_matches_bit_serial_for_every_width_and_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 5) as u8)
            .collect();
        for width in 8..=32u32 {
            let engine =
                CrcEngine::from_full_poly(Gf2Poly::from_exponents(&[width, 1, 0])).unwrap();
            for len in 0..=data.len() {
                assert_eq!(
                    engine.compute_bytes(&data[..len]),
                    engine.compute_bits_serial(&BitVec::from_bytes(&data[..len])),
                    "width {width}, length {len}"
                );
            }
        }
    }

    #[test]
    fn small_width_falls_back_to_bit_serial() {
        let engine = crc3();
        let bytes = [0xAB, 0xCD];
        assert_eq!(
            engine.compute_bytes(&bytes),
            engine.compute_bits_serial(&BitVec::from_bytes(&bytes))
        );
    }

    #[test]
    fn checksum_words_matches_bit_serial_for_all_widths_and_lengths() {
        // Every Hamming width used by Table 1, plus sub-byte and 16/32-bit
        // widths, across lengths straddling the word boundaries.
        for m in [1u32, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24, 32] {
            let g = match m {
                1 => Gf2Poly::from_exponents(&[1, 0]),
                _ => {
                    // x^m + x + 1 is not always primitive but the CRC maths
                    // do not require primitivity.
                    Gf2Poly::from_exponents(&[m, 1, 0])
                }
            };
            let engine = CrcEngine::from_full_poly(g).unwrap();
            let mut state = 0x243F_6A88_85A3_08D3u64 ^ (m as u64);
            for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 200, 255, 511] {
                let mut bits = BitVec::with_capacity(len);
                for _ in 0..len {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    bits.push(state >> 63 == 1);
                }
                assert_eq!(
                    engine.checksum_words(bits.words(), bits.len()),
                    engine.compute_bits_serial(&bits),
                    "m = {m}, len = {len}"
                );
            }
        }
    }

    #[test]
    fn checksum_bit_range_matches_slice_then_checksum() {
        let engine = CrcEngine::from_full_poly(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap();
        let bytes: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(41).wrapping_add(9))
            .collect();
        let bits = BitVec::from_bytes(&bytes);
        for (start, end) in [(0, 512), (1, 256), (1, 1), (7, 263), (64, 511), (129, 200)] {
            assert_eq!(
                engine.checksum_bit_range(&bits, start, end),
                engine.compute_bits_serial(&bits.slice(start..end)),
                "range {start}..{end}"
            );
        }
    }

    #[test]
    fn checksum_append_zeros_matches_padded_message() {
        let engine = crc3();
        let bits = BitVec::from_bit_str("1011001").unwrap();
        for zeros in [0usize, 1, 3, 8, 62, 63, 64, 127, 200] {
            let mut padded = bits.clone();
            padded.push_bits(0, zeros.min(64));
            for _ in 64..zeros {
                padded.push(false);
            }
            let reg = engine.compute_bits(&bits);
            assert_eq!(
                engine.checksum_append_zeros(reg, zeros),
                engine.compute_bits_serial(&padded),
                "zeros = {zeros}"
            );
        }
    }

    #[test]
    fn crc_of_codeword_multiple_is_zero() {
        // Any multiple of g has CRC zero; build multiples via Gf2Poly.
        let g = Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
        let engine = CrcEngine::from_full_poly(g).unwrap();
        for mult in 1u64..200 {
            let product = Gf2Poly(mult).mul(g);
            let width = (product.degree() + 1) as usize;
            let bits = BitVec::from_u64(product.0, width);
            assert_eq!(engine.compute_bits_serial(&bits), 0, "multiplier {mult}");
        }
    }

    #[test]
    fn table1_rows_are_consistent() {
        for row in table1::ROWS {
            assert_eq!(row.n, (1u64 << row.m) - 1, "m = {}", row.m);
            assert_eq!(row.k, row.n - row.m as u64, "m = {}", row.m);
            assert_eq!(row.generator().degree(), row.m, "m = {}", row.m);
            // Every generator in the table is primitive (required for GD).
            assert!(
                row.generator().is_primitive(),
                "m = {} generator not primitive",
                row.m
            );
        }
    }

    #[test]
    fn table1_paper_parameters_match_generators_except_known_m9_typos() {
        for row in table1::ROWS {
            let derived = row.derived_crc_parameter();
            if row.m == 9 {
                // The printed m = 9 parameters (0x00D and 0x0F3) are
                // inconsistent with the polynomial column; we follow the
                // polynomial column (see EXPERIMENTS.md).
                continue;
            }
            assert_eq!(
                derived, row.paper_crc_parameter,
                "m = {}: derived {:#x} vs paper {:#x}",
                row.m, derived, row.paper_crc_parameter
            );
        }
    }

    #[test]
    fn table1_primary_row_lookup() {
        assert_eq!(table1::primary_row(8).unwrap().n, 255);
        assert_eq!(table1::primary_row(3).unwrap().k, 4);
        assert!(table1::primary_row(2).is_none());
        assert!(table1::primary_row(16).is_none());
        // m = 5 has two rows; primary_row returns the first.
        assert_eq!(
            table1::primary_row(5).unwrap().generator_exponents,
            &[5, 2, 0]
        );
    }
}
