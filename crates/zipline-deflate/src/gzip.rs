//! The gzip container (RFC 1952).
//!
//! The paper's Figure 3 baseline "extract\[s\] all payloads in a regular file
//! that we compress with the gzip compression tool"; this module provides the
//! same end-to-end format: a 10-byte header, a DEFLATE stream, and a trailer
//! with CRC-32 and the uncompressed length modulo 2³².

use crate::crc32::crc32;
use crate::deflate::{DeflateEncoder, Level};
use crate::error::{DeflateError, Result};
use crate::inflate::inflate_into;

/// gzip magic bytes.
const MAGIC: [u8; 2] = [0x1F, 0x8B];
/// Compression method 8 = DEFLATE.
const CM_DEFLATE: u8 = 8;

/// Header flag bits (RFC 1952 §2.3.1).
const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// Compresses `data` into a single-member gzip file.
pub fn gzip_compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    gzip_compress_into(data, level, &mut out);
    out
}

/// Streaming-friendly variant of [`gzip_compress`]: appends one gzip member
/// to `out`, reusing its allocation (header and trailer included). Repeated
/// calls produce a valid multi-member stream; clearing `out` between calls
/// gives a per-member scratch buffer. One-shot: a long-running compressor —
/// such as the engine-side `DeflateBackend` — keeps a [`DeflateEncoder`]
/// and calls [`DeflateEncoder::gzip_into`], which is the same code.
pub fn gzip_compress_into(data: &[u8], level: Level, out: &mut Vec<u8>) {
    DeflateEncoder::default().gzip_into(data, level, out);
}

impl DeflateEncoder {
    /// Appends `data` as one gzip member to `out`, reusing `out`'s
    /// allocation and this encoder's tables.
    pub fn gzip_into(&mut self, data: &[u8], level: Level, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(CM_DEFLATE);
        out.push(0); // FLG: no optional fields
        out.extend_from_slice(&0u32.to_le_bytes()); // MTIME unknown
        out.push(match level {
            Level::Best => 2,
            Level::Fast | Level::Store => 4,
            Level::Default => 0,
        }); // XFL
        out.push(255); // OS = unknown
        self.deflate_into(data, level, out);
        out.extend_from_slice(&crc32(data).to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    }
}

/// Decompresses a single-member gzip file, verifying the CRC-32 and length
/// trailer.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    gzip_decompress_into(data, &mut out)?;
    Ok(out)
}

/// Streaming-friendly variant of [`gzip_decompress`]: appends the restored
/// bytes of one gzip member to `out` (reusing its allocation) and returns
/// how many of them were appended. The CRC-32 and ISIZE trailer checks
/// apply to exactly the appended range, so interleaving members from
/// several streams into one output buffer stays integrity-checked per
/// member. On error `out` is left truncated back to its original length.
pub fn gzip_decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<usize> {
    let start = out.len();
    let result = gzip_member_into(data, out, start);
    if result.is_err() {
        out.truncate(start);
    }
    result
}

fn gzip_member_into(data: &[u8], out: &mut Vec<u8>, start: usize) -> Result<usize> {
    let body_offset = parse_header(data)?;
    let consumed = inflate_into(&data[body_offset..], out)?;
    let restored = &out[start..];
    let trailer_offset = body_offset + consumed;
    if data.len() < trailer_offset + 8 {
        return Err(DeflateError::UnexpectedEof);
    }
    let expected_crc = u32::from_le_bytes([
        data[trailer_offset],
        data[trailer_offset + 1],
        data[trailer_offset + 2],
        data[trailer_offset + 3],
    ]);
    let expected_len = u32::from_le_bytes([
        data[trailer_offset + 4],
        data[trailer_offset + 5],
        data[trailer_offset + 6],
        data[trailer_offset + 7],
    ]);
    let actual_crc = crc32(restored);
    if actual_crc != expected_crc {
        return Err(DeflateError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    if expected_len != restored.len() as u32 {
        return Err(DeflateError::Corrupt(format!(
            "ISIZE mismatch: header says {expected_len}, got {}",
            restored.len() as u32
        )));
    }
    Ok(restored.len())
}

/// Parses the gzip header and returns the offset of the DEFLATE body.
fn parse_header(data: &[u8]) -> Result<usize> {
    if data.len() < 10 {
        return Err(DeflateError::UnexpectedEof);
    }
    if data[0..2] != MAGIC {
        return Err(DeflateError::BadGzipHeader("wrong magic bytes".into()));
    }
    if data[2] != CM_DEFLATE {
        return Err(DeflateError::BadGzipHeader(format!(
            "unsupported method {}",
            data[2]
        )));
    }
    let flags = data[3];
    if flags & !(FTEXT | FHCRC | FEXTRA | FNAME | FCOMMENT) != 0 {
        return Err(DeflateError::BadGzipHeader(format!(
            "reserved flag bits set: {flags:#x}"
        )));
    }
    let mut offset = 10usize;
    if flags & FEXTRA != 0 {
        if data.len() < offset + 2 {
            return Err(DeflateError::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([data[offset], data[offset + 1]]) as usize;
        offset += 2 + xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flags & flag != 0 {
            let terminator = data[offset.min(data.len())..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(DeflateError::UnexpectedEof)?;
            offset += terminator + 1;
        }
    }
    if flags & FHCRC != 0 {
        offset += 2;
    }
    if offset > data.len() {
        return Err(DeflateError::UnexpectedEof);
    }
    Ok(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::deflate_compress;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_basic() {
        let data = b"gzip container roundtrip test data ".repeat(100);
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            let gz = gzip_compress(&data, level);
            assert_eq!(&gz[0..2], &MAGIC);
            assert_eq!(gz[2], CM_DEFLATE);
            assert_eq!(gzip_decompress(&gz).unwrap(), data, "level {level:?}");
        }
    }

    #[test]
    fn empty_input_roundtrips() {
        let gz = gzip_compress(b"", Level::Default);
        assert_eq!(gzip_decompress(&gz).unwrap(), b"");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let data = b"integrity protected payload".repeat(50);
        let mut gz = gzip_compress(&data, Level::Default);
        // Flip a bit in the middle of the DEFLATE body.
        let mid = gz.len() / 2;
        gz[mid] ^= 0x01;
        let result = gzip_decompress(&gz);
        assert!(result.is_err(), "corruption must not go unnoticed");
    }

    #[test]
    fn corrupted_trailer_is_detected() {
        let data = b"payload".repeat(10);
        let mut gz = gzip_compress(&data, Level::Default);
        let n = gz.len();
        gz[n - 1] ^= 0xFF; // ISIZE
        assert!(gzip_decompress(&gz).is_err());
        let mut gz = gzip_compress(&data, Level::Default);
        gz[n - 8] ^= 0xFF; // CRC
        assert!(matches!(
            gzip_decompress(&gz),
            Err(DeflateError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn header_validation() {
        let data = b"x".repeat(20);
        let gz = gzip_compress(&data, Level::Default);

        let mut bad_magic = gz.clone();
        bad_magic[0] = 0x00;
        assert!(matches!(
            gzip_decompress(&bad_magic),
            Err(DeflateError::BadGzipHeader(_))
        ));

        let mut bad_method = gz.clone();
        bad_method[2] = 7;
        assert!(matches!(
            gzip_decompress(&bad_method),
            Err(DeflateError::BadGzipHeader(_))
        ));

        let mut reserved_flag = gz.clone();
        reserved_flag[3] = 0x80;
        assert!(gzip_decompress(&reserved_flag).is_err());

        assert!(gzip_decompress(&gz[..5]).is_err());
        assert!(gzip_decompress(&[]).is_err());
    }

    #[test]
    fn optional_header_fields_are_skipped() {
        // Build a gzip file with FNAME and FEXTRA by hand around our own
        // deflate body and trailer.
        let data = b"optional header field test".repeat(5);
        let body = deflate_compress(&data, Level::Default);
        let mut gz = Vec::new();
        gz.extend_from_slice(&MAGIC);
        gz.push(CM_DEFLATE);
        gz.push(FNAME | FEXTRA);
        gz.extend_from_slice(&0u32.to_le_bytes());
        gz.push(0);
        gz.push(255);
        // FEXTRA: 4 bytes of payload.
        gz.extend_from_slice(&4u16.to_le_bytes());
        gz.extend_from_slice(&[1, 2, 3, 4]);
        // FNAME: null-terminated.
        gz.extend_from_slice(b"trace.bin\0");
        gz.extend_from_slice(&body);
        gz.extend_from_slice(&crc32(&data).to_le_bytes());
        gz.extend_from_slice(&(data.len() as u32).to_le_bytes());
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn truncated_trailer_is_detected() {
        let data = b"trailer test".repeat(10);
        let gz = gzip_compress(&data, Level::Default);
        assert!(gzip_decompress(&gz[..gz.len() - 4]).is_err());
    }

    #[test]
    fn into_variants_append_and_recycle() {
        let first = b"first member first member first member".repeat(20);
        let second = b"second member with different content".repeat(20);
        // Compress both members into one recycled scratch buffer.
        let mut scratch = Vec::new();
        gzip_compress_into(&first, Level::Default, &mut scratch);
        let first_len = scratch.len();
        assert_eq!(gzip_decompress(&scratch).unwrap(), first);
        gzip_compress_into(&second, Level::Default, &mut scratch);
        // Restore both members into one accumulating output buffer.
        let mut out = Vec::new();
        let n1 = gzip_decompress_into(&scratch[..first_len], &mut out).unwrap();
        assert_eq!(n1, first.len());
        let n2 = gzip_decompress_into(&scratch[first_len..], &mut out).unwrap();
        assert_eq!(n2, second.len());
        assert_eq!(out.len(), first.len() + second.len());
        assert_eq!(&out[..n1], &first[..]);
        assert_eq!(&out[n1..], &second[..]);
    }

    #[test]
    fn a_reused_encoder_writes_the_members_a_fresh_one_does() {
        let inputs: [&[u8]; 5] = [
            &b"first member first member first member".repeat(20),
            b"",
            &(0..9000u32)
                .map(|i| (i * 7 % 9) as u8 + b'a')
                .collect::<Vec<u8>>(),
            b"ab",
            &b"first member first member first member".repeat(20),
        ];
        let mut encoder = DeflateEncoder::default();
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            for data in inputs {
                let mut member = Vec::new();
                encoder.gzip_into(data, level, &mut member);
                assert_eq!(member, gzip_compress(data, level), "level {level:?}");
            }
        }
    }

    #[test]
    fn failed_into_decode_truncates_back() {
        let data = b"payload".repeat(30);
        let mut gz = gzip_compress(&data, Level::Default);
        let n = gz.len();
        gz[n - 1] ^= 0xFF; // corrupt ISIZE
        let mut out = b"prefix".to_vec();
        assert!(gzip_decompress_into(&gz, &mut out).is_err());
        assert_eq!(out, b"prefix", "error leaves the accumulator untouched");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn roundtrip_arbitrary_data(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            let gz = gzip_compress(&data, Level::Default);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }

        #[test]
        fn random_bytes_never_panic_the_gzip_decoder(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = gzip_decompress(&data);
        }
    }
}
