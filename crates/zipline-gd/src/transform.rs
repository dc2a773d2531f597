//! The GD transformation function based on Hamming codes.
//!
//! This module implements the data transformation at the centre of
//! Figures 1 and 2 of the paper, independent of any packet framing:
//!
//! * **Deconstruction** (encoding direction, Figure 1 steps ➋–➎): compute the
//!   syndrome of the `n`-bit chunk with the CRC unit, look up the single-bit
//!   error mask it designates, XOR the mask onto the chunk to land on the
//!   nearest codeword, and keep its rightmost `k` bits as the *basis*; the
//!   syndrome itself is the *deviation*.
//! * **Reconstruction** (decoding direction, Figure 2 steps ➌–➐): zero-pad
//!   the basis, run it through the same CRC to regenerate the `m` parity bits
//!   the encoder truncated, re-assemble the codeword, and XOR the error mask
//!   selected by the deviation to restore the original chunk bit-exactly.
//!
//! The reconstruction step relies on the generator polynomial being
//! primitive: then `x^n ≡ 1 (mod g)` and `CRC(basis · x^m)` equals the
//! truncated parity bits (see `poly::Gf2Poly::is_primitive`).

use crate::bits::BitVec;
use crate::error::{GdError, Result};
use crate::hamming::HammingCode;

/// Output of deconstructing one `n`-bit chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Deconstructed {
    /// The `k`-bit basis (deduplication unit).
    pub basis: BitVec,
    /// The `m`-bit deviation (the Hamming syndrome).
    pub deviation: u64,
}

/// GD transformation function backed by a Hamming code.
#[derive(Debug, Clone)]
pub struct HammingTransform {
    code: HammingCode,
}

impl HammingTransform {
    /// Builds the transform for the Hamming code with parameter `m`,
    /// using the paper's generator polynomial for that `m` (Table 1).
    pub fn new(m: u32) -> Result<Self> {
        Ok(Self {
            code: HammingCode::new(m)?,
        })
    }

    /// Builds the transform from an existing Hamming code.
    pub fn from_code(code: HammingCode) -> Self {
        Self { code }
    }

    /// The underlying Hamming code.
    pub fn code(&self) -> &HammingCode {
        &self.code
    }

    /// Chunk length `n` in bits.
    pub fn chunk_bits(&self) -> usize {
        self.code.n()
    }

    /// Basis length `k` in bits.
    pub fn basis_bits(&self) -> usize {
        self.code.k()
    }

    /// Deviation length `m` in bits.
    pub fn deviation_bits(&self) -> u32 {
        self.code.m()
    }

    /// Splits an `n`-bit chunk into basis and deviation (Figure 1).
    ///
    /// Word-parallel: the syndrome comes from the slicing-by-8 CRC over the
    /// chunk's packed words, the `n`-bit error mask of the original
    /// formulation is reduced to a single-bit flip (one word XOR), and the
    /// flip is applied directly inside the extracted basis — bits landing in
    /// the truncated parity region need no correction at all.
    pub fn deconstruct(&self, chunk: &BitVec) -> Result<Deconstructed> {
        if chunk.len() != self.code.n() {
            return Err(GdError::LengthMismatch {
                expected: self.code.n(),
                actual: chunk.len(),
            });
        }
        // ➋ syndrome via the CRC unit
        let deviation = self.code.syndrome(chunk)?;
        // ➎ keep the rightmost k bits, with ➌/➍ folded in: flip the bit
        // designated by the syndrome if (and only if) it survives the
        // truncation to the message region.
        let m = self.code.m() as usize;
        let mut basis = chunk.slice(m..self.code.n());
        self.code.fold_error_into_basis(&mut basis, deviation)?;
        Ok(Deconstructed { basis, deviation })
    }

    /// Rebuilds the original `n`-bit chunk from a basis and deviation
    /// (Figure 2).
    pub fn reconstruct(&self, basis: &BitVec, deviation: u64) -> Result<BitVec> {
        let mut chunk = BitVec::with_capacity(self.code.n());
        self.reconstruct_into(basis, deviation, &mut chunk)?;
        Ok(chunk)
    }

    /// The recycling form of [`Self::reconstruct`]: writes the chunk into
    /// `out`, reusing its storage allocation. With `out` carried across
    /// records (see `DecodeScratch` in the codec), steady-state
    /// reconstruction performs no heap allocation.
    pub fn reconstruct_into(&self, basis: &BitVec, deviation: u64, out: &mut BitVec) -> Result<()> {
        if basis.len() != self.code.k() {
            return Err(GdError::LengthMismatch {
                expected: self.code.k(),
                actual: basis.len(),
            });
        }
        let position = self.deviation_position(deviation)?;
        // ➌/➍ zero-pad and regenerate the parity bits with the same CRC
        // (word-parallel: no padded copy is materialised)
        let parity = self.code.parity_of_message(basis);
        // ➏ concatenate parity and basis back into the codeword
        out.clear();
        out.push_bits(parity, self.code.m() as usize);
        out.extend_from_bitvec(basis);
        debug_assert_eq!(self.code.syndrome(out)?, 0);
        // ➎/➏ flip the bit designated by the deviation (single word XOR
        // instead of an n-bit mask)
        if let Some(position) = position {
            out.flip(position);
        }
        Ok(())
    }

    /// The codeword bit a deviation designates (`None` for 0, the codeword
    /// itself), or [`GdError::Malformed`] when it lies beyond the syndrome
    /// range. The one range check of the decode side: both
    /// [`Self::reconstruct_into`] and the cached emit of the codec
    /// (`ChunkCodec::emit_cached`) go through it.
    pub fn deviation_position(&self, deviation: u64) -> Result<Option<usize>> {
        if deviation > self.code.n() as u64 {
            return Err(GdError::Malformed(format!(
                "deviation {deviation} exceeds syndrome range 0..={}",
                self.code.n()
            )));
        }
        self.code.error_position(deviation)
    }

    /// Number of distinct `n`-bit chunks that map to each basis: `n + 1`
    /// (the codeword itself plus every single-bit perturbation of it).
    ///
    /// This is the "thousands or even millions of chunks can be mapped to the
    /// same basis" observation of section 2 — for the paper's `m = 8`,
    /// 256 chunks share each basis.
    pub fn chunks_per_basis(&self) -> usize {
        self.code.n() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_chunk(n: usize) -> impl Strategy<Value = BitVec> {
        proptest::collection::vec(any::<bool>(), n).prop_map(|bools| BitVec::from_bools(&bools))
    }

    #[test]
    fn paper_worked_example_section2() {
        // Section 2's example with the (7, 4) code: chunks with at most one
        // bit set map to basis 0000, chunks with at most one bit cleared map
        // to basis 1111.
        let t = HammingTransform::new(3).unwrap();
        let zero_family = [
            "0000000", "0000001", "0000010", "0000100", "0001000", "0010000", "0100000", "1000000",
        ];
        for s in zero_family {
            let chunk = BitVec::from_bit_str(s).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            assert_eq!(d.basis.to_string(), "0000", "chunk {s}");
            // Deviation identifies the flipped bit: reconstruct must invert.
            let back = t.reconstruct(&d.basis, d.deviation).unwrap();
            assert_eq!(back, chunk, "chunk {s}");
        }
        let ones_family = [
            "1111111", "1111110", "1111101", "1111011", "1110111", "1101111", "1011111", "0111111",
        ];
        for s in ones_family {
            let chunk = BitVec::from_bit_str(s).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            assert_eq!(d.basis.to_string(), "1111", "chunk {s}");
            let back = t.reconstruct(&d.basis, d.deviation).unwrap();
            assert_eq!(back, chunk, "chunk {s}");
        }
    }

    #[test]
    fn paper_42_bit_sequence_example() {
        // The 42-bit sequence of section 2 contains six 7-bit chunks but only
        // two distinct bases.
        let t = HammingTransform::new(3).unwrap();
        let sequence = [
            "0000000", "1111111", "0100000", "1111011", "1000000", "1011111",
        ];
        let mut bases = std::collections::HashSet::new();
        for s in sequence {
            let chunk = BitVec::from_bit_str(s).unwrap();
            bases.insert(t.deconstruct(&chunk).unwrap().basis.to_string());
        }
        assert_eq!(bases.len(), 2);
        assert!(bases.contains("0000"));
        assert!(bases.contains("1111"));
    }

    #[test]
    fn deviation_of_codeword_is_zero() {
        let t = HammingTransform::new(4).unwrap();
        let msg = BitVec::from_bit_str("01101011010").unwrap();
        let cw = t.code().encode(&msg).unwrap();
        let d = t.deconstruct(&cw).unwrap();
        assert_eq!(d.deviation, 0);
        assert_eq!(d.basis, msg);
    }

    #[test]
    fn length_checks() {
        let t = HammingTransform::new(3).unwrap();
        assert!(t.deconstruct(&BitVec::zeros(8)).is_err());
        assert!(t.reconstruct(&BitVec::zeros(5), 0).is_err());
        assert!(t.reconstruct(&BitVec::zeros(4), 8).is_err());
    }

    #[test]
    fn chunks_per_basis_counts() {
        assert_eq!(HammingTransform::new(3).unwrap().chunks_per_basis(), 8);
        assert_eq!(HammingTransform::new(8).unwrap().chunks_per_basis(), 256);
    }

    #[test]
    fn accessors_report_code_dimensions() {
        let t = HammingTransform::new(8).unwrap();
        assert_eq!(t.chunk_bits(), 255);
        assert_eq!(t.basis_bits(), 247);
        assert_eq!(t.deviation_bits(), 8);
    }

    #[test]
    fn exhaustive_roundtrip_for_small_code() {
        // Every possible 7-bit chunk survives the transform.
        let t = HammingTransform::new(3).unwrap();
        for value in 0u64..128 {
            let chunk = BitVec::from_u64(value, 7);
            let d = t.deconstruct(&chunk).unwrap();
            assert!(d.deviation < 8);
            assert_eq!(d.basis.len(), 4);
            let back = t.reconstruct(&d.basis, d.deviation).unwrap();
            assert_eq!(back, chunk, "value {value:07b}");
        }
    }

    #[test]
    fn all_chunks_mapping_to_same_basis_differ_in_at_most_two_bits_from_each_other() {
        // Chunks sharing a basis are the codeword plus single-bit flips, so
        // any two of them differ in at most 2 bits.
        let t = HammingTransform::new(3).unwrap();
        use std::collections::HashMap;
        let mut groups: HashMap<String, Vec<BitVec>> = HashMap::new();
        for value in 0u64..128 {
            let chunk = BitVec::from_u64(value, 7);
            let basis = t.deconstruct(&chunk).unwrap().basis.to_string();
            groups.entry(basis).or_default().push(chunk);
        }
        assert_eq!(groups.len(), 16, "one group per 4-bit basis");
        for (basis, members) in groups {
            assert_eq!(members.len(), 8, "basis {basis}");
            for a in &members {
                for b in &members {
                    let distance = a.xor(b).unwrap().count_ones();
                    assert!(distance <= 2, "basis {basis}: distance {distance}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_m3(chunk in arbitrary_chunk(7)) {
            let t = HammingTransform::new(3).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            prop_assert_eq!(t.reconstruct(&d.basis, d.deviation).unwrap(), chunk);
        }

        #[test]
        fn roundtrip_m4(chunk in arbitrary_chunk(15)) {
            let t = HammingTransform::new(4).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            prop_assert_eq!(t.reconstruct(&d.basis, d.deviation).unwrap(), chunk);
        }

        #[test]
        fn roundtrip_m8(chunk in arbitrary_chunk(255)) {
            let t = HammingTransform::new(8).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            prop_assert_eq!(t.reconstruct(&d.basis, d.deviation).unwrap(), chunk);
        }

        #[test]
        fn roundtrip_m11(chunk in arbitrary_chunk(2047)) {
            let t = HammingTransform::new(11).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            prop_assert_eq!(t.reconstruct(&d.basis, d.deviation).unwrap(), chunk);
        }

        #[test]
        fn basis_is_invariant_under_single_bit_flips(chunk in arbitrary_chunk(255), flip in 0usize..255) {
            // Flipping one bit of a chunk never changes its basis when the
            // chunk was already a codeword — and in general, a chunk and the
            // codeword it maps to share the same basis.
            let t = HammingTransform::new(8).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            // Re-deconstruct the codeword itself (basis + zero deviation).
            let codeword = t.reconstruct(&d.basis, 0).unwrap();
            let mut flipped = codeword.clone();
            flipped.flip(flip);
            let d2 = t.deconstruct(&flipped).unwrap();
            prop_assert_eq!(d2.basis, d.basis);
        }

        #[test]
        fn deviation_is_within_syndrome_range(chunk in arbitrary_chunk(31)) {
            let t = HammingTransform::new(5).unwrap();
            let d = t.deconstruct(&chunk).unwrap();
            prop_assert!(d.deviation <= 31);
        }
    }
}
