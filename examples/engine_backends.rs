//! # Backend matrix: GD vs deflate vs passthrough, one generic pipeline
//!
//! The ZipLine paper's Figure 3 compares Generalized Deduplication against
//! the gzip tool offline. With the `CompressionBackend` abstraction the
//! comparison runs *live*: the same generic [`PipelinedStream`] drives the
//! paper's sensor and campus-DNS workloads through
//!
//! * [`GdBackend`] — the sharded GD engine (8 shards, 4 workers),
//! * [`DeflateBackend`] — gzip, one member per 8 KiB batch,
//! * [`PassthroughBackend`] — the ratio floor (1.0 by construction),
//!
//! and prints compression ratio and throughput side by side. Every backend
//! is checked for a byte-exact round trip through its mirrored
//! [`EngineDecompressor`] before its row is reported.
//!
//! Run with:
//! ```sh
//! cargo run --release --example engine_backends
//! ```
//!
//! [`GdBackend`]: zipline_repro::zipline_engine::GdBackend
//! [`DeflateBackend`]: zipline_repro::zipline_engine::DeflateBackend
//! [`PassthroughBackend`]: zipline_repro::zipline_engine::PassthroughBackend
//! [`PipelinedStream`]: zipline_repro::zipline_engine::PipelinedStream
//! [`EngineDecompressor`]: zipline_repro::zipline_engine::EngineDecompressor

use std::time::Instant;

use zipline_repro::zipline_engine::{
    CompressionBackend, CompressionEngine, DeflateBackend, EngineBuilder, EngineDecompressor,
    PassthroughBackend, PipelinedStream,
};
use zipline_repro::zipline_gd::packet::PacketType;
use zipline_repro::zipline_traces::{
    ChunkWorkload, DnsWorkload, DnsWorkloadConfig, SensorWorkload, SensorWorkloadConfig,
};

/// One row of the matrix: a workload streamed through one backend.
struct Row {
    backend: &'static str,
    bytes_in: u64,
    wire_bytes: u64,
    payloads: u64,
    micros: u128,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.wire_bytes as f64 / self.bytes_in as f64
    }

    fn mib_per_s(&self) -> f64 {
        let secs = self.micros as f64 / 1e6;
        (self.bytes_in as f64 / (1024.0 * 1024.0)) / secs.max(1e-9)
    }
}

/// Streams `workload` through `engine`, verifies the byte-exact round trip
/// against the mirrored decompressor, and returns the row. One generic
/// function covers every backend — that is the point of the trait.
fn run_backend<B: CompressionBackend + Send + 'static>(
    name: &'static str,
    engine: CompressionEngine<B>,
    mut decoder: EngineDecompressor<B>,
    batch_units: usize,
    workload: &dyn ChunkWorkload,
) -> Row {
    let mut wire: Vec<(PacketType, Vec<u8>)> = Vec::new();
    let start = Instant::now();
    let mut stream = PipelinedStream::new(engine, batch_units, |packet_type, bytes: &[u8]| {
        wire.push((packet_type, bytes.to_vec()))
    })
    .expect("valid stream");
    stream.consume_workload(workload).expect("workload streams");
    let (_, summary) = stream.finish().expect("stream flushes");
    let micros = start.elapsed().as_micros();

    let mut restored = Vec::new();
    for (packet_type, bytes) in &wire {
        decoder
            .restore_payload_into(*packet_type, bytes, &mut restored)
            .expect("payload decodes");
    }
    let original: Vec<u8> = workload.chunks().flatten().collect();
    assert_eq!(restored, original, "{name}: lossless round trip");

    Row {
        backend: name,
        bytes_in: summary.bytes_in,
        wire_bytes: summary.wire_bytes,
        payloads: summary.payloads_emitted,
        micros,
    }
}

fn run_workload(title: &str, workload: &dyn ChunkWorkload) {
    println!("== {title} ==");
    let gd_builder = EngineBuilder::new().shards(8).workers(4);
    let gd_decoder = gd_builder.build_decompressor().expect("valid GD decoder");
    let gd_engine = gd_builder.build().expect("valid GD engine");
    let rows = [
        run_backend(
            "gd", gd_engine, gd_decoder, 256, // chunks per batch
            workload,
        ),
        run_backend(
            "deflate",
            EngineBuilder::new()
                .backend(DeflateBackend::default())
                .build()
                .expect("valid deflate engine"),
            EngineBuilder::new()
                .backend(DeflateBackend::default())
                .build_decompressor()
                .expect("valid deflate decoder"),
            8192, // bytes per gzip member
            workload,
        ),
        run_backend(
            "passthrough",
            EngineBuilder::new()
                .backend(PassthroughBackend::new())
                .build()
                .expect("valid passthrough engine"),
            EngineBuilder::new()
                .backend(PassthroughBackend::new())
                .build_decompressor()
                .expect("valid passthrough decoder"),
            8192,
            workload,
        ),
    ];
    println!(
        "  {:<12} {:>10} {:>10} {:>9} {:>7} {:>11}",
        "backend", "bytes_in", "wire", "payloads", "ratio", "MiB/s"
    );
    for row in &rows {
        println!(
            "  {:<12} {:>10} {:>10} {:>9} {:>7.3} {:>11.1}",
            row.backend,
            row.bytes_in,
            row.wire_bytes,
            row.payloads,
            row.ratio(),
            row.mib_per_s(),
        );
    }
    let floor = rows
        .iter()
        .find(|r| r.backend == "passthrough")
        .expect("floor row");
    assert!((floor.ratio() - 1.0).abs() < f64::EPSILON, "floor is 1.0");
    println!();
}

fn main() {
    // The paper's two Figure 3 workloads at example scale.
    let sensor = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 20_000,
        sensors: 64,
        readings_per_sensor: 16,
        ..SensorWorkloadConfig::paper_scale()
    });
    run_workload("synthetic sensor readouts (32 B chunks)", &sensor);

    let dns = DnsWorkload::new(DnsWorkloadConfig::paper_scale());
    run_workload("campus DNS queries (34 B chunks)", &dns);

    println!("ok");
}
