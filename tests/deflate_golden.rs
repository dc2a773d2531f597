//! Bit-identity pin for `zipline-deflate`'s encoder.
//!
//! Every gzip member the encoder produces over a fixed corpus, at every
//! level, is compared as `(length, FNV-1a 64)` against the committed table
//! in `deflate_golden.txt`. The wire ratio of every deflate-routed batch,
//! the auto router's prefix estimate, the hybrid container and the paper's
//! Figure 3 gzip baseline are all functions of these bytes, so an encoder
//! change that is meant to be a pure speed-up must leave the table alone.
//!
//! The corpus covers what the engine actually feeds the encoder (8 KiB
//! sensor and campus-DNS batches, the auto router's 1 KiB prefix samples,
//! the period-9 text segments of the `tcp_large_auto` benchmark workload)
//! and the encoder's edges: every length 0..=20, odd-length random and
//! low-entropy inputs up to ~70 KB, a 100 KB run of zeros (258-byte
//! overlapping matches) and one input of more than 100 000 tokens (a second
//! DEFLATE block). Every member also round-trips through `gzip_decompress`.
//!
//! To regenerate after a change that is *meant* to move bytes:
//! `cargo test --release --test deflate_golden -- --ignored regenerate`.

use std::fmt::Write as _;

use zipline_repro::zipline_deflate::{gzip_compress, gzip_decompress, Level};
use zipline_repro::zipline_traces::{
    ChunkWorkload, DnsWorkload, DnsWorkloadConfig, SensorWorkload, SensorWorkloadConfig,
};

const TABLE: &str = include_str!("deflate_golden.txt");
const TABLE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/deflate_golden.txt");

const LEVELS: [(&str, Level); 4] = [
    ("store", Level::Store),
    ("fast", Level::Fast),
    ("default", Level::Default),
    ("best", Level::Best),
];

/// One engine batch of the benchmark's shape: 256 chunks of 32 bytes.
const BATCH_BYTES: usize = 8 << 10;
/// `AutoConfig::default().sample_bytes`: the router's prefix sample.
const SAMPLE_BYTES: usize = 1 << 10;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `len` seeded bytes drawn uniformly from an alphabet of `alphabet` values.
fn seeded(seed: u64, len: usize, alphabet: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| (splitmix64(&mut state) % alphabet) as u8)
        .collect()
}

fn flatten(workload: &dyn ChunkWorkload, batches: usize) -> Vec<u8> {
    workload
        .chunks()
        .take(batches * BATCH_BYTES / workload.chunk_len())
        .flatten()
        .collect()
}

/// The text-like segment the `tcp_large_auto` workload alternates with
/// sensor data (`benchmark/src/inputs.rs::mixed_bytes`).
fn period9_segment(base: usize) -> Vec<u8> {
    (0..BATCH_BYTES)
        .map(|i| {
            let (chunk, byte) = (i / 32, i % 32);
            ((base + chunk * 17 + byte * 7) % 9) as u8 + b'a'
        })
        .collect()
}

/// The fixed corpus, in table order.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut inputs: Vec<(String, Vec<u8>)> = Vec::new();
    let mut batches = |name: &str, bytes: &[u8], prefixes: bool| {
        for (i, batch) in bytes.chunks(BATCH_BYTES).enumerate() {
            inputs.push((format!("{name}-{i}"), batch.to_vec()));
            if prefixes {
                inputs.push((format!("{name}-{i}-prefix"), batch[..SAMPLE_BYTES].to_vec()));
            }
        }
    };

    for seed in [1u64, 7, 0x5EED_0001] {
        let paper = SensorWorkloadConfig::paper_scale();
        let workload = SensorWorkload::new(SensorWorkloadConfig {
            chunks: 8 * BATCH_BYTES / paper.chunk_len,
            seed,
            ..paper
        });
        batches(&format!("sensor-s{seed:x}"), &flatten(&workload, 8), true);
    }
    for seed in [1u64, 0xD45_0001] {
        let workload = DnsWorkload::new(DnsWorkloadConfig {
            queries: 6 * BATCH_BYTES / 32,
            seed,
            ..DnsWorkloadConfig::paper_scale()
        });
        batches(&format!("dns-s{seed:x}"), &flatten(&workload, 6), false);
    }
    for base in [0usize, 1, 5, 8, 100, 257, 511, 640, 777, 901, 1000, 1023] {
        batches(&format!("period9-b{base}"), &period9_segment(base), true);
    }

    for len in 0..=20usize {
        let bytes = (0..len).map(|i| b'a' + (i * 7 % 5) as u8).collect();
        inputs.push((format!("short-{len}"), bytes));
    }
    for (i, &len) in [
        21usize, 33, 255, 257, 259, 511, 1023, 4097, 8191, 16385, 32769, 65537, 70001,
    ]
    .iter()
    .enumerate()
    {
        inputs.push((
            format!("random-{len}"),
            seeded(0xA11C_E000 + i as u64, len, 256),
        ));
        // The deep chains of `Level::Best` make small alphabets quadratic;
        // only the 16-value alphabet runs at every length.
        for alphabet in [2u64, 4, 16] {
            if alphabet == 16 || len <= 8191 {
                inputs.push((
                    format!("alphabet{alphabet}-{len}"),
                    seeded(0xB0B0_0000 + (alphabet << 8) + i as u64, len, alphabet),
                ));
            }
        }
    }
    inputs.push(("zeros-100k".into(), vec![0u8; 100_000]));

    // More than TOKENS_PER_BLOCK (100 000) tokens: incompressible bytes are
    // one literal token each, then text that gives the second block matches.
    let mut long = seeded(0x70CE_0000, 110_001, 256);
    long.extend(period9_segment(3));
    long.extend(b"the quick brown fox jumps over the lazy dog. ".repeat(60));
    inputs.push(("two-blocks".into(), long));
    inputs
}

/// One table line per (input, level): `name level input_len member_len fnv`.
fn actual_table() -> String {
    let mut table = String::new();
    for (name, data) in corpus() {
        for (level_name, level) in LEVELS {
            let member = gzip_compress(&data, level);
            let restored = gzip_decompress(&member)
                .unwrap_or_else(|e| panic!("{name} at {level_name} does not decode: {e}"));
            assert!(
                restored == data,
                "{name} at {level_name} restores other bytes"
            );
            writeln!(
                table,
                "{name} {level_name} {} {} {:016x}",
                data.len(),
                member.len(),
                fnv1a64(&member)
            )
            .expect("writing to a String");
        }
    }
    table
}

#[test]
fn encoder_output_matches_the_committed_table() {
    let actual = actual_table();
    let mut mismatches = Vec::new();
    let mut expected_lines = TABLE.lines();
    for line in actual.lines() {
        match expected_lines.next() {
            Some(expected) if expected == line => {}
            expected => mismatches.push(format!("  expected {expected:?}\n  actual   {line:?}")),
        }
    }
    let missing = expected_lines.count();
    assert!(
        mismatches.is_empty() && missing == 0,
        "{} of {} members differ from tests/deflate_golden.txt ({missing} table lines have no \
         member); first:\n{}",
        mismatches.len(),
        actual.lines().count(),
        mismatches.first().map_or("", String::as_str)
    );
}

#[test]
fn the_table_covers_the_edges_it_claims() {
    let lines: Vec<Vec<&str>> = TABLE
        .lines()
        .map(|l| l.split(' ').collect::<Vec<_>>())
        .collect();
    assert!(lines.len() >= 400, "{} lines", lines.len());
    assert!(lines.iter().all(|l| l.len() == 5));
    // Both block types occur among the dynamic-capable levels: short inputs
    // take the fixed code, batches the dynamic one — seen as `default`
    // beating `fast` on a batch and tying it on a three-byte input.
    let len_of = |name: &str, level: &str| -> usize {
        lines
            .iter()
            .find(|l| l[0] == name && l[1] == level)
            .unwrap_or_else(|| panic!("no line for {name} {level}"))[3]
            .parse()
            .expect("member length")
    };
    assert_eq!(len_of("short-3", "default"), len_of("short-3", "fast"));
    assert!(len_of("sensor-s1-0", "default") < len_of("sensor-s1-0", "fast"));
    assert!(len_of("zeros-100k", "best") < 200);
    assert!(len_of("two-blocks", "default") > 100_000);
    assert_eq!(len_of("short-0", "store"), 10 + 5 + 8);
}

/// Rewrites the table from the encoder in the tree.
#[test]
#[ignore = "rewrites tests/deflate_golden.txt"]
fn regenerate() {
    std::fs::write(TABLE_PATH, actual_table()).expect("table is writable");
}
