//! CRC-32 (IEEE 802.3, reflected) as used by the gzip trailer.
//!
//! This is the conventional byte-reflected CRC-32 with polynomial
//! `0xEDB88320`, initial value `0xFFFFFFFF` and final inversion — distinct
//! from the non-reflected, non-premultiplied CRC convention the GD transform
//! uses (`zipline-gd`).
//!
//! [`Crc32::update`] is slicing-by-8: eight 256-entry tables, where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, let one
//! step fold eight input bytes into the state with eight independent
//! lookups instead of eight dependent ones. The tail (and any input shorter
//! than eight bytes) takes the classic byte-at-a-time step through
//! `TABLES[0]`; both produce the same value for every split of the input.

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

/// Slicing tables for the reflected polynomial, built at compile time.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let below = tables[k - 1][i];
            tables[k][i] = (below >> 8) ^ tables[0][(below & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh CRC-32 state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the CRC.
    pub fn update(&mut self, data: &[u8]) {
        let mut state = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let low = state ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            state = TABLES[7][(low & 0xFF) as usize]
                ^ TABLES[6][((low >> 8) & 0xFF) as usize]
                ^ TABLES[5][((low >> 16) & 0xFF) as usize]
                ^ TABLES[4][(low >> 24) as usize]
                ^ TABLES[3][word[4] as usize]
                ^ TABLES[2][word[5] as usize]
                ^ TABLES[1][word[6] as usize]
                ^ TABLES[0][word[7] as usize];
        }
        for &b in words.remainder() {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// Finishes and returns the CRC value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(13) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    /// The byte-at-a-time CRC the slicing path must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let state = data.iter().fold(0xFFFF_FFFFu32, |state, &b| {
            (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize]
        });
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_matches_bytewise_for_every_short_length_and_split() {
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        for len in 0..=data.len() {
            let expected = bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), expected, "length {len}");
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finalize(), expected, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn default_is_fresh_state() {
        let c: Crc32 = Default::default();
        assert_eq!(c.finalize(), crc32(b""));
    }
}
