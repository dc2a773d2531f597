//! DEFLATE decoding (RFC 1951).

use crate::bitstream::BitReader;
use crate::error::{DeflateError, Result};
use crate::huffman::HuffmanDecoder;
use crate::tables::{
    fixed_codes, symbol_to_distance, symbol_to_length, CLC_ORDER, END_OF_BLOCK, WINDOW_SIZE,
};

/// Decompresses a raw DEFLATE stream.
pub fn inflate_decompress(data: &[u8]) -> Result<Vec<u8>> {
    Ok(inflate_with_consumed(data)?.0)
}

/// Decompresses a raw DEFLATE stream and also reports how many input bytes
/// it occupied (used by the gzip container to find its trailer).
pub fn inflate_with_consumed(data: &[u8]) -> Result<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    let consumed = inflate_into(data, &mut out)?;
    Ok((out, consumed))
}

/// Streaming-friendly variant: appends the decompressed bytes to `out`
/// (reusing its allocation) and returns how many input bytes the DEFLATE
/// stream occupied. Back-references are validated against the bytes this
/// stream produced, never against whatever the caller already accumulated
/// in `out`, so a corrupt stream cannot read across member boundaries.
pub fn inflate_into(data: &[u8], out: &mut Vec<u8>) -> Result<usize> {
    let start = out.len();
    let mut reader = BitReader::new(data);
    loop {
        let bfinal = reader.read_bit()?;
        let btype = reader.read_bits(2)?;
        match btype {
            0b00 => inflate_stored(&mut reader, out)?,
            0b01 => {
                let fixed = fixed_codes();
                let (litlen, dist) = (&fixed.litlen_decoder, &fixed.dist_decoder);
                inflate_block(&mut reader, out, start, litlen, dist)?;
            }
            0b10 => {
                let (litlen, dist) = read_dynamic_tables(&mut reader)?;
                inflate_block(&mut reader, out, start, &litlen, &dist)?;
            }
            _ => return Err(DeflateError::Corrupt("reserved block type 11".into())),
        }
        if bfinal == 1 {
            break;
        }
    }
    reader.align_to_byte();
    Ok(reader.bytes_consumed())
}

fn inflate_stored(reader: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<()> {
    reader.align_to_byte();
    let len_bytes = reader.read_bytes(2)?;
    let nlen_bytes = reader.read_bytes(2)?;
    let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]);
    let nlen = u16::from_le_bytes([nlen_bytes[0], nlen_bytes[1]]);
    if len != !nlen {
        return Err(DeflateError::Corrupt(
            "stored block LEN/NLEN mismatch".into(),
        ));
    }
    let data = reader.read_bytes(len as usize)?;
    out.extend_from_slice(&data);
    Ok(())
}

fn read_dynamic_tables(reader: &mut BitReader<'_>) -> Result<(HuffmanDecoder, HuffmanDecoder)> {
    let hlit = reader.read_bits(5)? as usize + 257;
    let hdist = reader.read_bits(5)? as usize + 1;
    let hclen = reader.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(DeflateError::Corrupt(format!(
            "HLIT {hlit} / HDIST {hdist} out of range"
        )));
    }

    let mut clc_lengths = [0u8; 19];
    for &sym in CLC_ORDER.iter().take(hclen) {
        clc_lengths[sym] = reader.read_bits(3)? as u8;
    }
    let clc = HuffmanDecoder::from_lengths(&clc_lengths)?;

    // Decode the HLIT + HDIST code lengths with the code-length code.
    let total = hlit + hdist;
    let mut lengths = Vec::with_capacity(total);
    while lengths.len() < total {
        let symbol = clc.decode(reader)?;
        match symbol {
            0..=15 => lengths.push(symbol as u8),
            16 => {
                let &prev = lengths.last().ok_or_else(|| {
                    DeflateError::Corrupt("repeat with no previous length".into())
                })?;
                let count = reader.read_bits(2)? + 3;
                for _ in 0..count {
                    lengths.push(prev);
                }
            }
            17 => {
                let count = reader.read_bits(3)? as usize + 3;
                lengths.resize(lengths.len() + count, 0);
            }
            18 => {
                let count = reader.read_bits(7)? as usize + 11;
                lengths.resize(lengths.len() + count, 0);
            }
            other => {
                return Err(DeflateError::Corrupt(format!(
                    "invalid code-length symbol {other}"
                )))
            }
        }
    }
    if lengths.len() != total {
        return Err(DeflateError::Corrupt(
            "code length run overflows table".into(),
        ));
    }
    if lengths[END_OF_BLOCK as usize] == 0 {
        return Err(DeflateError::Corrupt(
            "end-of-block symbol has no code".into(),
        ));
    }
    let litlen = HuffmanDecoder::from_lengths(&lengths[..hlit])?;
    let dist = HuffmanDecoder::from_lengths(&lengths[hlit..])?;
    Ok((litlen, dist))
}

fn inflate_block(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    stream_start: usize,
    litlen: &HuffmanDecoder,
    dist: &HuffmanDecoder,
) -> Result<()> {
    loop {
        let symbol = litlen.decode(reader)?;
        match symbol {
            0..=255 => out.push(symbol as u8),
            s if s == END_OF_BLOCK => return Ok(()),
            256..=285 => {
                let (base_len, len_extra) = symbol_to_length(symbol)
                    .ok_or_else(|| DeflateError::Corrupt(format!("bad length symbol {symbol}")))?;
                let length = base_len as usize + reader.read_bits(len_extra as u32)? as usize;

                let dist_symbol = dist.decode(reader)?;
                let (base_dist, dist_extra) = symbol_to_distance(dist_symbol).ok_or_else(|| {
                    DeflateError::Corrupt(format!("bad distance symbol {dist_symbol}"))
                })?;
                let distance = base_dist as usize + reader.read_bits(dist_extra as u32)? as usize;

                if distance == 0 || distance > out.len() - stream_start || distance > WINDOW_SIZE {
                    return Err(DeflateError::Corrupt(format!(
                        "back-reference distance {distance} exceeds output ({} bytes so far)",
                        out.len() - stream_start
                    )));
                }
                let start = out.len() - distance;
                for i in 0..length {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            other => return Err(DeflateError::Corrupt(format!("invalid symbol {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate_compress, Level};
    use proptest::prelude::*;

    #[test]
    fn decodes_a_stored_block() {
        // Hand-built stored block: BFINAL=1, BTYPE=00, LEN=3.
        let mut stream = vec![0b0000_0001u8];
        stream.extend_from_slice(&3u16.to_le_bytes());
        stream.extend_from_slice(&(!3u16).to_le_bytes());
        stream.extend_from_slice(b"abc");
        assert_eq!(inflate_decompress(&stream).unwrap(), b"abc");
    }

    #[test]
    fn rejects_len_nlen_mismatch() {
        let mut stream = vec![0b0000_0001u8];
        stream.extend_from_slice(&3u16.to_le_bytes());
        stream.extend_from_slice(&3u16.to_le_bytes()); // wrong complement
        stream.extend_from_slice(b"abc");
        assert!(inflate_decompress(&stream).is_err());
    }

    #[test]
    fn rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        let stream = [0b0000_0111u8];
        assert!(matches!(
            inflate_decompress(&stream),
            Err(DeflateError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_truncated_streams() {
        let data = b"some reasonably long test input to make several bytes".repeat(4);
        let compressed = deflate_compress(&data, Level::Default);
        for cut in [0, 1, compressed.len() / 2, compressed.len() - 1] {
            assert!(
                inflate_decompress(&compressed[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_distance_beyond_output() {
        // Fixed block whose first symbol is a match (no previous output).
        // Fixed code for length symbol 257 (len 3) is 7 bits: 0000001;
        // distance symbol 0 is 5 bits: 00000.
        use crate::bitstream::BitWriter;
        let fixed = fixed_codes();
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        fixed.litlen.write(&mut w, 257);
        fixed.dist.write(&mut w, 0);
        fixed.litlen.write(&mut w, 256);
        let stream = w.into_bytes();
        let err = inflate_decompress(&stream).unwrap_err();
        assert!(matches!(err, DeflateError::Corrupt(_)));
    }

    #[test]
    fn consumed_bytes_excludes_trailing_garbage() {
        let data = b"hello hello hello hello";
        let mut compressed = deflate_compress(data, Level::Default);
        let clean_len = compressed.len();
        compressed.extend_from_slice(&[0xAA; 8]); // trailer-like garbage
        let (out, consumed) = inflate_with_consumed(&compressed).unwrap();
        assert_eq!(out, data);
        assert_eq!(consumed, clean_len);
    }

    #[test]
    fn corrupting_compressed_bytes_is_detected_or_changes_output() {
        // DEFLATE has no integrity check of its own, so corruption either
        // fails to parse or yields different bytes — it must never panic.
        let data = b"abcdefgabcdefgabcdefg".repeat(50);
        let compressed = deflate_compress(&data, Level::Default);
        for i in (0..compressed.len()).step_by(7) {
            let mut corrupted = compressed.clone();
            corrupted[i] ^= 0x10;
            if let Ok(out) = inflate_decompress(&corrupted) {
                assert_ne!(out.is_empty(), data.is_empty())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn roundtrip_all_levels(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
            for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
                let compressed = deflate_compress(&data, level);
                prop_assert_eq!(inflate_decompress(&compressed).unwrap(), data.clone());
            }
        }

        #[test]
        fn roundtrip_structured(data in proptest::collection::vec(0u8..4, 0..6000)) {
            // Heavily repetitive alphabet exercises long matches and RLE paths.
            let compressed = deflate_compress(&data, Level::Best);
            prop_assert_eq!(inflate_decompress(&compressed).unwrap(), data.clone());
            if data.len() > 1000 {
                prop_assert!(compressed.len() < data.len());
            }
        }

        #[test]
        fn random_input_bytes_never_panic_the_decoder(data in proptest::collection::vec(any::<u8>(), 0..400)) {
            let _ = inflate_decompress(&data);
        }
    }
}
