//! Bit-exact buffers and readers/writers.
//!
//! Hamming block lengths (`n = 2^m - 1`) are never byte aligned, and the
//! ZipLine wire formats pack fields such as a 15-bit identifier next to a
//! single carried-over bit. Everything in the GD data path therefore operates
//! on explicit bit sequences.
//!
//! # Conventions
//!
//! A [`BitVec`] is an ordered sequence of bits. Position `0` is the *first*
//! bit of the sequence — the most significant bit when the sequence is viewed
//! as a binary number, and the coefficient of the highest power of `x` when
//! it is viewed as a polynomial over GF(2) (the paper writes the chunk `B` as
//! `b_{n-1} … b_1 b_0` with `b_{n-1}` the MSB and the coefficient of
//! `x^{n-1}`).
//!
//! When converting to and from bytes, the first bit of the sequence maps to
//! the most significant bit of the first byte (network bit order).
//!
//! # Word-parallel fast path
//!
//! Storage is packed into `u64` words, most significant bit first: bit `i`
//! of the sequence lives in word `i / 64` at bit `63 - (i % 64)`, so a word
//! read as an integer equals the corresponding 64-bit slice of the sequence,
//! and byte `j` of the big-endian encoding of a word is byte `8·(i/64) + j`
//! of the byte serialization. All bulk operations (`from_bytes`/`to_bytes`,
//! `push_bits`, `extend_from_bitvec`, `slice`, `get_bits`, `xor_with`)
//! operate on whole words; per-bit loops remain only in the trivially cheap
//! single-bit accessors. Storage bits at positions `>= len()` are kept zero
//! (the *masked-tail invariant*), which is what lets equality, hashing and
//! the word-level CRC in [`crate::crc`] consume [`BitVec::words`] directly.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of words a [`BitVec`] stores inline before spilling to the heap.
/// One word covers every vector of at most 64 bits — carried-bit fields,
/// deviations, identifiers — which are exactly the vectors the hot paths
/// create and clone per record.
const INLINE_WORDS: usize = 1;

/// Small-buffer word storage behind [`BitVec`]: vectors of up to
/// `INLINE_WORDS * 64` bits live entirely inline (construction, cloning and
/// dropping never touch the heap); longer vectors spill to a `Vec<u64>`.
/// The variant is an implementation detail — equality, hashing and the
/// public [`BitVec::words`] accessor all go through the slice view.
#[derive(Clone)]
enum Words {
    /// Up to `INLINE_WORDS` words stored in place (`len` = live word count).
    Inline { len: u8, buf: [u64; INLINE_WORDS] },
    /// Heap storage for longer vectors.
    Heap(Vec<u64>),
}

impl Words {
    #[inline]
    fn new() -> Self {
        Words::Inline {
            len: 0,
            buf: [0; INLINE_WORDS],
        }
    }

    #[inline]
    fn with_capacity(words: usize) -> Self {
        if words <= INLINE_WORDS {
            Self::new()
        } else {
            Words::Heap(Vec::with_capacity(words))
        }
    }

    /// `count` words, each set to `fill`.
    #[inline]
    fn filled(fill: u64, count: usize) -> Self {
        if count <= INLINE_WORDS {
            Words::Inline {
                len: count as u8,
                buf: [fill; INLINE_WORDS],
            }
        } else {
            Words::Heap(vec![fill; count])
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline { len, buf } => &buf[..*len as usize],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Words::Inline { len, buf } => &mut buf[..*len as usize],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Words::Inline { len, .. } => *len as usize,
            Words::Heap(v) => v.len(),
        }
    }

    #[inline]
    fn push(&mut self, word: u64) {
        match self {
            Words::Inline { len, buf } => {
                if (*len as usize) < INLINE_WORDS {
                    buf[*len as usize] = word;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_WORDS * 4);
                    v.extend_from_slice(&buf[..*len as usize]);
                    v.push(word);
                    *self = Words::Heap(v);
                }
            }
            Words::Heap(v) => v.push(word),
        }
    }

    #[inline]
    fn clear(&mut self) {
        // Heap storage stays heap so its capacity is retained for reuse.
        match self {
            Words::Inline { len, .. } => *len = 0,
            Words::Heap(v) => v.clear(),
        }
    }

    #[inline]
    fn truncate(&mut self, count: usize) {
        match self {
            // Compare in usize: counts >= 256 must be a no-op (matching
            // Vec::truncate), not wrap through the u8 length.
            Words::Inline { len, .. } => *len = (*len as usize).min(count) as u8,
            Words::Heap(v) => v.truncate(count),
        }
    }

    #[inline]
    fn last_mut(&mut self) -> Option<&mut u64> {
        self.as_mut_slice().last_mut()
    }

    /// Sets the word count to exactly `count`, with unspecified contents —
    /// the caller overwrites every word. Reuses heap capacity when present.
    #[inline]
    fn resize_for_overwrite(&mut self, count: usize) {
        match self {
            Words::Inline { len, .. } if count <= INLINE_WORDS => *len = count as u8,
            Words::Heap(v) => {
                v.clear();
                v.resize(count, 0);
            }
            Words::Inline { .. } => *self = Words::Heap(vec![0; count]),
        }
    }
}

impl Default for Words {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Words {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Words {}

impl Hash for Words {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A growable, bit-addressed vector.
///
/// Bits are stored packed into 64-bit words, with a one-word inline
/// small-buffer: vectors of at most 64 bits never allocate. Position 0 is
/// the first / most-significant bit (see the module documentation for
/// conventions).
#[derive(Clone, Default, Eq)]
pub struct BitVec {
    /// Packed storage; bit `i` lives in `words[i / 64]` at bit position
    /// `63 - (i % 64)` (MSB-first within each word).
    words: Words,
    /// Number of valid bits.
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self {
            words: Words::new(),
            len: 0,
        }
    }

    /// Creates an empty bit vector with room for at least `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Words::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: Words::filled(0, len.div_ceil(64)),
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: Words::filled(u64::MAX, len.div_ceil(64)),
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a bit vector from a byte slice; every byte contributes 8 bits,
    /// most significant bit first.
    ///
    /// Word-parallel: packs 8 bytes per storage word.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut v = Self::new();
        v.load_bytes(bytes);
        v
    }

    /// Replaces the contents with the bits of `bytes`, reusing the existing
    /// storage allocation. The word-packing equivalent of
    /// `*self = BitVec::from_bytes(bytes)` without the allocation.
    pub fn load_bytes(&mut self, bytes: &[u8]) {
        self.words.resize_for_overwrite(bytes.len().div_ceil(8));
        let dst = self.words.as_mut_slice();
        let mut chunks = bytes.chunks_exact(8);
        for (j, chunk) in (&mut chunks).enumerate() {
            dst[j] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = 0u64;
            for (i, &b) in tail.iter().enumerate() {
                word |= (b as u64) << (56 - 8 * i);
            }
            dst[bytes.len() / 8] = word;
        }
        self.len = bytes.len() * 8;
    }

    /// Creates a bit vector of `len` bits directly from packed words
    /// (MSB-first within each word, as documented on [`Self::words`]).
    /// Storage bits beyond `len` are cleared.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len.div_ceil(64)` words long.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count must match bit length"
        );
        let mut v = Self {
            words: Words::Heap(words),
            len,
        };
        v.mask_tail();
        v
    }

    /// The packed storage words (MSB-first within each word; storage bits at
    /// positions `>= len()` are zero). Word-level consumers such as the
    /// table-driven CRC read the message through this accessor instead of a
    /// per-bit iterator.
    pub fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Creates a bit vector from the lowest `width` bits of `value`, most
    /// significant bit first.
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64, "width must be <= 64");
        let mut v = Self::with_capacity(width);
        v.push_bits(value, width);
        v
    }

    /// Creates a bit vector from a slice of booleans (first element = first
    /// bit).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::with_capacity(bools.len());
        for &b in bools {
            v.push(b);
        }
        v
    }

    /// Parses a string of `0` and `1` characters. Any other character is an
    /// error. Useful in tests and examples.
    pub fn from_bit_str(s: &str) -> Option<Self> {
        let mut v = Self::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => v.push(false),
                '1' => v.push(true),
                _ => return None,
            }
        }
        Some(v)
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `index` (position 0 = first bit).
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range (len {})",
            self.len
        );
        let word = self.words.as_slice()[index / 64];
        (word >> (63 - (index % 64))) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (63 - (index % 64));
        let word = &mut self.words.as_mut_slice()[index / 64];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips bit `index`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range (len {})",
            self.len
        );
        self.words.as_mut_slice()[index / 64] ^= 1u64 << (63 - (index % 64));
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let index = self.len;
        if index / 64 == self.words.len() {
            self.words.push(0);
        }
        self.len += 1;
        if bit {
            self.words.as_mut_slice()[index / 64] |= 1u64 << (63 - (index % 64));
        }
    }

    /// Appends the lowest `width` bits of `value`, most significant first.
    ///
    /// Word-parallel: the bits are spliced into at most two storage words.
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width must be <= 64");
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        // Left-align the field inside a word, then shift into place.
        let aligned = value << (64 - width);
        let offset = self.len % 64;
        if offset == 0 {
            self.words.push(aligned);
        } else {
            *self
                .words
                .last_mut()
                .expect("offset != 0 implies a partial last word") |= aligned >> offset;
            if offset + width > 64 {
                self.words.push(aligned << (64 - offset));
            }
        }
        self.len += width;
    }

    /// Appends all bits of `other`.
    ///
    /// Word-parallel: appends 64 bits per step via [`Self::push_bits`].
    pub fn extend_from_bitvec(&mut self, other: &BitVec) {
        let mut remaining = other.len;
        for &word in other.words.iter() {
            let take = remaining.min(64);
            self.push_bits(word >> (64 - take), take);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Returns the bits in `range` as a new vector.
    ///
    /// Word-parallel: copies 64-bit windows via [`Self::get_bits`].
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitVec {
        assert!(range.start <= range.end, "reversed range");
        assert!(
            range.end <= self.len,
            "slice end {} out of range (len {})",
            range.end,
            self.len
        );
        let mut out = BitVec::with_capacity(range.len());
        let mut pos = range.start;
        while pos < range.end {
            let take = (range.end - pos).min(64);
            out.push_bits(self.get_bits(pos, take), take);
            pos += take;
        }
        out
    }

    /// Replaces the contents of `self` with the bits of `src` in `range`,
    /// reusing the existing storage allocation — the in-place, word-parallel
    /// equivalent of `*self = src.slice(range)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn copy_range_from(&mut self, src: &BitVec, range: std::ops::Range<usize>) {
        assert!(range.start <= range.end, "reversed range");
        assert!(
            range.end <= src.len,
            "slice end {} out of range (len {})",
            range.end,
            src.len
        );
        let len = range.len();
        let n_words = len.div_ceil(64);
        self.words.resize_for_overwrite(n_words);
        self.len = len;
        // Each destination word is a shifted 64-bit window of the source —
        // one or two word reads, no per-field call overhead.
        let src_words = src.words.as_slice();
        let dst = self.words.as_mut_slice();
        let first = range.start / 64;
        let offset = range.start % 64;
        if offset == 0 {
            dst.copy_from_slice(&src_words[first..first + n_words]);
        } else {
            for (j, out) in dst.iter_mut().enumerate() {
                let i = first + j;
                let mut word = src_words[i] << offset;
                if let Some(&next) = src_words.get(i + 1) {
                    word |= next >> (64 - offset);
                }
                *out = word;
            }
        }
        self.mask_tail();
    }

    /// Interprets bits `[pos, pos + width)` as an unsigned integer
    /// (first bit = most significant).
    ///
    /// Word-parallel: reads at most two storage words.
    ///
    /// # Panics
    /// Panics if `width > 64` or the range is out of bounds.
    pub fn get_bits(&self, pos: usize, width: usize) -> u64 {
        assert!(width <= 64, "width must be <= 64");
        assert!(pos + width <= self.len, "bit range out of bounds");
        if width == 0 {
            return 0;
        }
        let words = self.words.as_slice();
        let offset = pos % 64;
        let mut window = words[pos / 64] << offset;
        if offset != 0 {
            if let Some(&next) = words.get(pos / 64 + 1) {
                window |= next >> (64 - offset);
            }
        }
        window >> (64 - width)
    }

    /// Interprets the whole vector as an unsigned integer (first bit = MSB).
    ///
    /// # Panics
    /// Panics if the vector is longer than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "vector too long for u64");
        self.get_bits(0, self.len)
    }

    /// Serializes to bytes, first bit = MSB of first byte. The final byte is
    /// zero-padded on the right when the length is not a multiple of 8.
    ///
    /// Word-parallel: emits 8 bytes per storage word (the masked-tail
    /// invariant guarantees the padding bits are already zero).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len.div_ceil(8));
        self.append_bytes_to(&mut out);
        out
    }

    /// XORs `other` into `self` (both must have the same length).
    pub fn xor_with(&mut self, other: &BitVec) -> crate::error::Result<()> {
        if self.len != other.len {
            return Err(crate::error::GdError::LengthMismatch {
                expected: self.len,
                actual: other.len,
            });
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= *b;
        }
        self.mask_tail();
        Ok(())
    }

    /// Returns `self XOR other` as a new vector (lengths must match).
    pub fn xor(&self, other: &BitVec) -> crate::error::Result<BitVec> {
        let mut out = self.clone();
        out.xor_with(other)?;
        Ok(out)
    }

    /// Hashes the packed words (and the bit length) into a well-mixed 64-bit
    /// value with a multiply–rotate fold plus a SplitMix64-style finisher.
    ///
    /// This is the word-parallel basis hash used by the dictionary hot path:
    /// the encoder computes it once per chunk (caching it on
    /// `EncodedChunk::basis_hash`) and every dictionary probe then works from
    /// the cached value instead of re-hashing the 247-bit basis. Thanks to
    /// the masked-tail invariant, equal vectors always hash equally. The
    /// function is deterministic across runs, which lets the sharded engine
    /// derive shard placement from it on both the compress and decompress
    /// sides.
    pub fn hash_words(&self) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.len as u64;
        for &w in self.words.iter() {
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// Appends the byte serialization of the vector to `out` without any
    /// intermediate allocation — the recycling form of
    /// [`Self::to_bytes`]`()` + `extend_from_slice`. The final byte is
    /// zero-padded on the right when the length is not a multiple of 8.
    pub fn append_bytes_to(&self, out: &mut Vec<u8>) {
        let mut remaining = self.len.div_ceil(8);
        out.reserve(remaining);
        for &word in self.words.iter() {
            let bytes = word.to_be_bytes();
            let take = remaining.min(8);
            out.extend_from_slice(&bytes[..take]);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Number of bits set to one.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the bits, first to last.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Truncates the vector to `len` bits (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.words.truncate(len.div_ceil(64));
            self.mask_tail();
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Zeroes any storage bits beyond `len` so that equality and hashing can
    /// operate on whole words.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX << (64 - rem);
            }
        }
        // Drop fully unused words (can happen after truncate).
        let needed = self.len.div_ceil(64);
        self.words.truncate(needed);
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Hash for BitVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words.hash(state);
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}]<", self.len)?;
        let limit = self.len.min(96);
        for i in 0..limit {
            write!(f, "{}", self.get(i) as u8)?;
        }
        if self.len > limit {
            write!(f, "…")?;
        }
        write!(f, ">")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", self.get(i) as u8)?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

/// Incremental writer that packs bit fields into a byte buffer
/// (first field = most significant bits of the first byte).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            bits: BitVec::new(),
        }
    }

    /// Appends the lowest `width` bits of `value`.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        self.bits.push_bits(value, width);
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends an entire bit vector.
    pub fn write_bitvec(&mut self, bits: &BitVec) {
        self.bits.extend_from_bitvec(bits);
    }

    /// Appends whole bytes (word-parallel: 8 bytes per step).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.bits.push_bits(
                u64::from_be_bytes(chunk.try_into().expect("8-byte chunk")),
                64,
            );
        }
        for &b in chunks.remainder() {
            self.bits.push_bits(b as u64, 8);
        }
    }

    /// Appends zero bits until the total length is a multiple of 8.
    /// Returns how many padding bits were added.
    pub fn pad_to_byte(&mut self) -> usize {
        let pad = (8 - self.bits.len() % 8) % 8;
        for _ in 0..pad {
            self.bits.push(false);
        }
        pad
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    /// Finishes the writer, zero-padding to a byte boundary.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.pad_to_byte();
        self.bits.to_bytes()
    }

    /// Finishes the writer, returning the raw bit vector (no padding).
    pub fn into_bitvec(self) -> BitVec {
        self.bits
    }
}

/// Incremental reader that extracts bit fields from a byte buffer.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit to read, counted from the MSB of the first byte.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Total number of bits in the underlying buffer.
    pub fn total_bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Number of bits not yet consumed.
    pub fn remaining_bits(&self) -> usize {
        self.total_bits() - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> crate::error::Result<bool> {
        if self.pos >= self.total_bits() {
            return Err(crate::error::GdError::Malformed(
                "bit reader exhausted".into(),
            ));
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `width` bits as an unsigned integer (first bit = MSB).
    ///
    /// Byte-parallel: consumes up to 8 bits per step instead of one.
    /// `#[inline]` because the engine's restore path reads three short
    /// fields per payload across the crate boundary: out of line, the calls
    /// cost more than the reads.
    #[inline]
    pub fn read_bits(&mut self, width: usize) -> crate::error::Result<u64> {
        assert!(width <= 64, "width must be <= 64");
        if self.remaining_bits() < width {
            return Err(crate::error::GdError::Malformed(format!(
                "bit reader exhausted: wanted {width} bits, {} remaining",
                self.remaining_bits()
            )));
        }
        let mut value = 0u64;
        let mut got = 0;
        while got < width {
            let byte = self.bytes[self.pos / 8] as u64;
            let available = 8 - self.pos % 8;
            let take = (width - got).min(available);
            let bits = (byte >> (available - take)) & ((1u64 << take) - 1);
            value = (value << take) | bits;
            self.pos += take;
            got += take;
        }
        Ok(value)
    }

    /// Reads `count` bits into a new [`BitVec`] (word-parallel).
    pub fn read_bitvec(&mut self, count: usize) -> crate::error::Result<BitVec> {
        if self.remaining_bits() < count {
            return Err(crate::error::GdError::Malformed(format!(
                "bit reader exhausted: wanted {count} bits, {} remaining",
                self.remaining_bits()
            )));
        }
        let mut out = BitVec::with_capacity(count);
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(64);
            out.push_bits(self.read_bits(take)?, take);
            remaining -= take;
        }
        Ok(out)
    }

    /// Skips `count` bits.
    #[inline]
    pub fn skip(&mut self, count: usize) -> crate::error::Result<()> {
        if self.remaining_bits() < count {
            return Err(crate::error::GdError::Malformed(
                "bit reader exhausted".into(),
            ));
        }
        self.pos += count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut v = BitVec::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), pattern.len());
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn from_bytes_bit_order_is_msb_first() {
        let v = BitVec::from_bytes(&[0b1010_0000, 0b0000_0001]);
        assert_eq!(v.len(), 16);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(2));
        assert!(!v.get(3));
        assert!(!v.get(14));
        assert!(v.get(15));
    }

    #[test]
    fn to_bytes_roundtrip() {
        let bytes = [0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        let v = BitVec::from_bytes(&bytes);
        assert_eq!(v.to_bytes(), bytes);
    }

    #[test]
    fn to_bytes_pads_final_byte_with_zeros() {
        let v = BitVec::from_bit_str("11111").unwrap();
        assert_eq!(v.to_bytes(), vec![0b1111_1000]);
    }

    #[test]
    fn from_u64_and_to_u64() {
        let v = BitVec::from_u64(0b1011, 4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.to_u64(), 0b1011);
        assert_eq!(v.to_string(), "1011");

        let v = BitVec::from_u64(5, 8);
        assert_eq!(v.to_string(), "00000101");
    }

    #[test]
    fn from_bit_str_rejects_garbage() {
        assert!(BitVec::from_bit_str("0102").is_none());
        assert_eq!(BitVec::from_bit_str("").unwrap().len(), 0);
    }

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.len(), 130);
        assert!(z.is_zero());
        assert_eq!(z.count_ones(), 0);

        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(!o.is_zero());
    }

    #[test]
    fn set_flip_and_count() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.count_ones(), 4);
        v.flip(63);
        assert_eq!(v.count_ones(), 3);
        assert!(!v.get(63));
    }

    #[test]
    fn xor_matches_per_bit_xor() {
        let a = BitVec::from_bit_str("110010101110001").unwrap();
        let b = BitVec::from_bit_str("101110000110011").unwrap();
        let c = a.xor(&b).unwrap();
        for i in 0..a.len() {
            assert_eq!(c.get(i), a.get(i) ^ b.get(i));
        }
    }

    #[test]
    fn xor_length_mismatch_is_error() {
        let a = BitVec::zeros(5);
        let b = BitVec::zeros(6);
        assert!(a.xor(&b).is_err());
    }

    #[test]
    fn slice_extracts_correct_range() {
        let v = BitVec::from_bit_str("0011010111").unwrap();
        let s = v.slice(2..7);
        assert_eq!(s.to_string(), "11010");
        let whole = v.slice(0..v.len());
        assert_eq!(whole, v);
        let empty = v.slice(3..3);
        assert!(empty.is_empty());
    }

    #[test]
    fn get_bits_reads_msb_first() {
        let v = BitVec::from_bit_str("11010110").unwrap();
        assert_eq!(v.get_bits(0, 8), 0b1101_0110);
        assert_eq!(v.get_bits(2, 3), 0b010);
        assert_eq!(v.get_bits(5, 3), 0b110);
    }

    #[test]
    fn equality_ignores_stale_tail_bits() {
        // Construct two vectors with the same logical value but different
        // histories (one had extra bits truncated away).
        let mut a = BitVec::from_bit_str("1111").unwrap();
        a.push(true);
        a.truncate(4);
        let b = BitVec::from_bit_str("1111").unwrap();
        assert_eq!(a, b);

        use std::collections::hash_map::DefaultHasher;
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BitVec::from_bit_str("101").unwrap();
        let b = BitVec::from_bit_str("0110").unwrap();
        a.extend_from_bitvec(&b);
        assert_eq!(a.to_string(), "1010110");
    }

    #[test]
    fn push_bits_is_msb_first() {
        let mut v = BitVec::new();
        v.push_bits(0b1011, 4);
        v.push_bits(0x0F, 6);
        assert_eq!(v.to_string(), "1011001111");
    }

    #[test]
    fn truncate_then_push_does_not_resurrect_old_bits() {
        let mut v = BitVec::ones(70);
        v.truncate(3);
        assert_eq!(v.len(), 3);
        v.push(false);
        assert_eq!(v.to_string(), "1110");
    }

    #[test]
    fn from_bools_and_iter() {
        let bools = [true, false, false, true, true];
        let v = BitVec::from_bools(&bools);
        let collected: Vec<bool> = v.iter().collect();
        assert_eq!(collected, bools);
    }

    #[test]
    fn from_iterator() {
        let v: BitVec = (0..10).map(|i| i % 3 == 0).collect();
        assert_eq!(v.to_string(), "1001001001");
    }

    #[test]
    fn display_and_debug() {
        let v = BitVec::from_bit_str("1010").unwrap();
        assert_eq!(format!("{v}"), "1010");
        assert!(format!("{v:?}").contains("BitVec[4]"));
    }

    #[test]
    fn bit_writer_packs_fields() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bit(true);
        w.write_bits(0xAB, 8);
        assert_eq!(w.bit_len(), 12);
        let bytes = w.into_bytes();
        // 101 1 10101011 0000 -> 1011 1010 1011 0000
        assert_eq!(bytes, vec![0b1011_1010, 0b1011_0000]);
    }

    #[test]
    fn bit_writer_pad_counts() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 3);
        assert_eq!(w.pad_to_byte(), 5);
        assert_eq!(w.pad_to_byte(), 0);
        assert_eq!(w.bit_len(), 8);
    }

    #[test]
    fn bit_reader_reads_back_writer_output() {
        let mut w = BitWriter::new();
        w.write_bits(0x5, 3);
        w.write_bits(0x1234, 16);
        w.write_bit(true);
        w.write_bitvec(&BitVec::from_bit_str("0011").unwrap());
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0x5);
        assert_eq!(r.read_bits(16).unwrap(), 0x1234);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bitvec(4).unwrap().to_string(), "0011");
    }

    #[test]
    fn bit_reader_errors_when_exhausted() {
        let bytes = [0xFF];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(1).is_err());
        assert!(r.read_bitvec(1).is_err());

        let mut r2 = BitReader::new(&bytes);
        assert!(r2.skip(9).is_err());
        assert!(r2.skip(8).is_ok());
        assert_eq!(r2.remaining_bits(), 0);
    }

    #[test]
    fn bit_reader_position_tracking() {
        let bytes = [0xAA, 0x55];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.total_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining_bits(), 11);
    }

    #[test]
    fn push_bits_matches_per_bit_reference_across_word_boundaries() {
        // Exercise every alignment of a 64-bit field against a word boundary.
        for lead in 0..130usize {
            for width in [1usize, 7, 8, 31, 33, 63, 64] {
                let value = 0xA5C3_19F0_7E24_8B6Du64;
                let mut fast = BitVec::zeros(lead);
                fast.push_bits(value, width);
                let mut reference = BitVec::zeros(lead);
                for i in (0..width).rev() {
                    reference.push((value >> i) & 1 == 1);
                }
                assert_eq!(fast, reference, "lead {lead}, width {width}");
            }
        }
    }

    #[test]
    fn slice_and_get_bits_across_word_boundaries() {
        let bytes: Vec<u8> = (0..40u8)
            .map(|i| i.wrapping_mul(97).wrapping_add(13))
            .collect();
        let v = BitVec::from_bytes(&bytes);
        for start in [0usize, 1, 7, 63, 64, 65, 127, 130] {
            for len in [0usize, 1, 5, 64, 65, 150] {
                if start + len > v.len() {
                    continue;
                }
                let s = v.slice(start..start + len);
                assert_eq!(s.len(), len);
                for i in 0..len {
                    assert_eq!(
                        s.get(i),
                        v.get(start + i),
                        "start {start}, len {len}, bit {i}"
                    );
                }
            }
        }
        // get_bits against the per-bit reference.
        for pos in [0usize, 3, 62, 64, 100] {
            for width in [1usize, 8, 33, 64] {
                if pos + width > v.len() {
                    continue;
                }
                let mut reference = 0u64;
                for i in 0..width {
                    reference = (reference << 1) | (v.get(pos + i) as u64);
                }
                assert_eq!(
                    v.get_bits(pos, width),
                    reference,
                    "pos {pos}, width {width}"
                );
            }
        }
    }

    #[test]
    fn extend_matches_push_reference_for_unaligned_lengths() {
        for dst_len in [0usize, 1, 63, 64, 65] {
            for src_len in [0usize, 1, 63, 64, 65, 200] {
                let dst: BitVec = (0..dst_len).map(|i| i % 3 == 0).collect();
                let src: BitVec = (0..src_len).map(|i| i % 5 < 2).collect();
                let mut fast = dst.clone();
                fast.extend_from_bitvec(&src);
                let mut reference = dst.clone();
                for i in 0..src.len() {
                    reference.push(src.get(i));
                }
                assert_eq!(fast, reference, "dst {dst_len}, src {src_len}");
            }
        }
    }

    #[test]
    fn words_accessor_and_from_words_roundtrip() {
        let v = BitVec::from_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0xAB]);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[0], 0x1234_5678_9ABC_DEF0);
        assert_eq!(v.words()[1], 0xAB00_0000_0000_0000);
        let rebuilt = BitVec::from_words(v.words().to_vec(), v.len());
        assert_eq!(rebuilt, v);
        // from_words masks stray tail bits.
        let masked = BitVec::from_words(vec![u64::MAX], 4);
        assert_eq!(masked.to_string(), "1111");
        assert_eq!(masked.words()[0], 0xF000_0000_0000_0000);
    }

    #[test]
    #[should_panic(expected = "word count must match")]
    fn from_words_rejects_wrong_word_count() {
        let _ = BitVec::from_words(vec![0, 0], 64);
    }

    #[test]
    fn copy_range_from_matches_slice() {
        let src: BitVec = (0..300).map(|i| i % 7 < 3).collect();
        let mut dst = BitVec::from_bytes(&[0xFF; 8]); // pre-existing contents
        for (start, end) in [(0usize, 300usize), (1, 1), (3, 200), (64, 128), (65, 300)] {
            dst.copy_range_from(&src, start..end);
            assert_eq!(dst, src.slice(start..end), "range {start}..{end}");
        }
    }

    #[test]
    fn load_bytes_reuses_storage_and_replaces_contents() {
        let mut v = BitVec::from_bytes(&[0xFF; 16]);
        v.load_bytes(&[0xAB, 0xCD, 0xEF]);
        assert_eq!(v.len(), 24);
        assert_eq!(v.to_bytes(), vec![0xAB, 0xCD, 0xEF]);
        // The tail of the previous contents must not leak back in.
        v.push_bits(0, 8);
        assert_eq!(v.to_bytes(), vec![0xAB, 0xCD, 0xEF, 0x00]);
    }

    #[test]
    fn hash_words_is_deterministic_and_tail_independent() {
        let a = BitVec::from_bit_str("1111").unwrap();
        // Same logical value, different history (stale tail bits masked away).
        let mut b = BitVec::from_bit_str("1111").unwrap();
        b.push(true);
        b.truncate(4);
        assert_eq!(a.hash_words(), b.hash_words());
        // Length participates: a zero-extended vector hashes differently.
        assert_ne!(BitVec::zeros(4).hash_words(), BitVec::zeros(5).hash_words());
        // Single-bit differences change the hash (overwhelmingly likely for
        // any decent mixer; these fixed cases guard against regressions to a
        // degenerate fold).
        let mut c = a.clone();
        c.flip(2);
        assert_ne!(a.hash_words(), c.hash_words());
    }

    #[test]
    fn append_bytes_to_matches_to_bytes() {
        for len in [0usize, 1, 5, 8, 63, 64, 65, 200] {
            let v: BitVec = (0..len).map(|i| i % 3 == 0).collect();
            let mut out = vec![0xEE];
            v.append_bytes_to(&mut out);
            assert_eq!(out[0], 0xEE);
            assert_eq!(&out[1..], v.to_bytes().as_slice(), "len {len}");
        }
    }

    #[test]
    fn writer_bitvec_roundtrip_without_padding() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let v = w.into_bitvec();
        assert_eq!(v.len(), 2);
        assert_eq!(v.to_string(), "11");
    }
}
