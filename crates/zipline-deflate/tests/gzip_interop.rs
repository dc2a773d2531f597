//! Interoperability tests against the system `gzip`/`gunzip` binaries.
//!
//! These verify that the from-scratch DEFLATE/gzip implementation produces
//! files the reference tool accepts and can read files the reference tool
//! produces — i.e. that the Figure 3 baseline really is "gzip", not merely
//! something gzip-shaped — over inputs that reach every block type, not one
//! text sample. The tests skip silently when no `gzip` binary is installed
//! so the suite stays hermetic.

use std::io::Write;
use std::process::{Command, Stdio};

use zipline_traces::{ChunkWorkload, SensorWorkload, SensorWorkloadConfig};

fn gzip_available() -> bool {
    Command::new("gzip")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn sample_data() -> Vec<u8> {
    let mut data = Vec::new();
    for i in 0..4000u32 {
        data.extend_from_slice(
            format!("sensor-{:03} temperature={:04}\n", i % 37, i % 100).as_bytes(),
        );
    }
    data
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// Inputs that between them reach every block type and both ends of the
/// matcher: text lines, one engine batch of the sensor workload (mostly
/// literals, dynamic code), a period-9 segment (one distance symbol,
/// 258-byte overlapping matches), incompressible bytes (all literals, where
/// the fixed-or-dynamic choice is close), nothing at all, and more than
/// 100 000 tokens (a second block).
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let sensor = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 256,
        ..SensorWorkloadConfig::paper_scale()
    });
    let period9 = (0..8192usize)
        .map(|i| ((5 + i / 32 * 17 + i % 32 * 7) % 9) as u8 + b'a')
        .collect();
    let mut two_blocks = random_bytes(7, 110_000);
    two_blocks.extend_from_slice(&sample_data());
    vec![
        ("text", sample_data()),
        ("sensor batch", sensor.chunks().flatten().collect()),
        ("period-9 segment", period9),
        ("random", random_bytes(1, 4096)),
        ("empty", Vec::new()),
        ("two blocks", two_blocks),
    ]
}

/// Pipes `input` through the system `gzip` with `args`.
fn system_gzip(args: &[&str], input: &[u8]) -> Option<Vec<u8>> {
    let mut child = Command::new("gzip")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gzip");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // Write from a second thread: gzip's output can fill its pipe before
    // all of a large input has been taken.
    let output = std::thread::scope(|scope| {
        scope.spawn(move || stdin.write_all(input));
        child.wait_with_output().expect("gzip runs")
    });
    output.status.success().then_some(output.stdout)
}

#[test]
fn system_gunzip_accepts_our_output() {
    if !gzip_available() {
        eprintln!("skipping: gzip not installed");
        return;
    }
    for (name, data) in corpus() {
        for level in [
            zipline_deflate::Level::Store,
            zipline_deflate::Level::Fast,
            zipline_deflate::Level::Default,
            zipline_deflate::Level::Best,
        ] {
            let ours = zipline_deflate::gzip_compress(&data, level);
            let restored = system_gzip(&["-d", "-c"], &ours)
                .unwrap_or_else(|| panic!("gzip -d rejected our {name} at {level:?}"));
            assert!(
                restored == data,
                "gzip -d produced different bytes for {name} at {level:?}"
            );
        }
    }
}

#[test]
fn we_accept_system_gzip_output() {
    if !gzip_available() {
        eprintln!("skipping: gzip not installed");
        return;
    }
    for (name, data) in corpus() {
        for flag in ["-1", "-6", "-9"] {
            let theirs = system_gzip(&[flag, "-c"], &data).expect("gzip compresses");
            let decoded = zipline_deflate::gzip_decompress(&theirs)
                .unwrap_or_else(|e| panic!("failed to decode gzip {flag} of {name}: {e}"));
            assert!(decoded == data, "mismatch decoding gzip {flag} of {name}");
        }
    }
}

#[test]
fn our_compression_ratio_is_in_the_same_ballpark_as_system_gzip() {
    if !gzip_available() {
        eprintln!("skipping: gzip not installed");
        return;
    }
    let data = sample_data();
    let system = system_gzip(&["-6", "-c"], &data).expect("gzip compresses");
    let ours = zipline_deflate::gzip_compress(&data, zipline_deflate::Level::Default);
    let ratio = ours.len() as f64 / system.len() as f64;
    assert!(
        ratio < 1.35,
        "our output is {ratio:.2}x the size of system gzip ({} vs {} bytes)",
        ours.len(),
        system.len()
    );
}
