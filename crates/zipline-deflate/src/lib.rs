//! DEFLATE (RFC 1951) and gzip (RFC 1952), implemented from scratch.
//!
//! The ZipLine evaluation compares its in-network compression against the
//! `gzip` command-line tool (Figure 3). This crate is that baseline: an
//! LZ77 matcher, canonical Huffman coding, the three DEFLATE block types
//! (stored, fixed, dynamic) for both compression and decompression, and the
//! gzip container with its CRC-32 integrity check.
//!
//! The paper's point about DEFLATE — that it "requires a minimum of 3 kB to
//! compress data" and has unbounded execution time, making it impossible to
//! run in a Tofino data plane — is precisely why this implementation lives
//! on the host side of the benchmark harness and not in a switch program.
//!
//! # Encoder structure and the bit-identity contract
//!
//! The encoder is built like a production deflate — a reject-first,
//! word-measuring hash-chain matcher over reusable tables ([`lz77`]),
//! package-merge over weights only ([`huffman`]), a table-driven block
//! writer that costs the fixed and the dynamic form from the block's
//! histograms ([`deflate`], [`tables`]) and a slicing-by-8 CRC ([`crc32`]) —
//! but *what* it emits is fixed: for a given input and [`Level`], the
//! tokens, the code lengths (ties included) and therefore every output
//! byte are part of the crate's format. The engine's wire ratios, the auto
//! router's decisions and stores written by earlier builds all depend on
//! them, and `tests/deflate_golden.rs` in the workspace root pins them. A
//! caller that compresses many members keeps a [`DeflateEncoder`];
//! [`gzip_compress_into`] and [`deflate_compress_into`] are the one-shot
//! wrappers over the same code.
//!
//! # Example
//!
//! ```
//! let data = b"aaaaaaaaaabbbbbbbbbbaaaaaaaaaa".repeat(10);
//! let compressed = zipline_deflate::gzip_compress(&data, zipline_deflate::Level::Default);
//! assert!(compressed.len() < data.len());
//! let restored = zipline_deflate::gzip_decompress(&compressed).unwrap();
//! assert_eq!(restored, data);
//! ```

pub mod bitstream;
pub mod crc32;
pub mod deflate;
pub mod error;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod lz77;
pub mod tables;

pub use deflate::{deflate_compress, deflate_compress_into, DeflateEncoder, Level};
pub use error::DeflateError;
pub use gzip::{gzip_compress, gzip_compress_into, gzip_decompress, gzip_decompress_into};
pub use inflate::{inflate_decompress, inflate_into};

/// Compresses `data` into a raw DEFLATE stream.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    deflate_compress(data, level)
}

/// Decompresses a raw DEFLATE stream.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    inflate_decompress(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_roundtrip() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 17) as u8).collect();
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            let c = compress(&data, level);
            assert_eq!(decompress(&c).unwrap(), data, "level {level:?}");
        }
    }

    #[test]
    fn doc_example_compiles_and_compresses() {
        let data = b"aaaaaaaaaabbbbbbbbbbaaaaaaaaaa".repeat(10);
        let compressed = gzip_compress(&data, Level::Default);
        assert!(compressed.len() < data.len());
        assert_eq!(gzip_decompress(&compressed).unwrap(), data);
    }
}
