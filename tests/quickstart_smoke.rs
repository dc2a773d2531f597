//! Smoke tests mirroring `examples/quickstart.rs`,
//! `examples/engine_stream.rs` and `examples/engine_backends.rs` at a
//! reduced scale, so the quickstart flows (host-side GD, the sharded engine
//! stream, the backend matrix, and the simulated two-switch deployment) are
//! exercised by `cargo test` on every change; CI additionally runs the real
//! example binaries.

use zipline_repro::zipline::deployment::{DeploymentConfig, ZipLineDeployment};
use zipline_repro::zipline_engine::{
    DeflateBackend, EngineBuilder, PassthroughBackend, PipelinedStream, SpawnPolicy,
};
use zipline_repro::zipline_gd::codec::{compress, decompress};
use zipline_repro::zipline_gd::GdConfig;

fn sensor_style_data(chunks: u32) -> Vec<u8> {
    let mut data = Vec::new();
    for i in 0..chunks {
        let mut chunk = [0u8; 32];
        chunk[0] = (i % 5) as u8;
        chunk[31] = 0xEE;
        if i % 7 == 0 {
            chunk[16] ^= 0x01;
        }
        data.extend_from_slice(&chunk);
    }
    data
}

#[test]
fn quickstart_flow_compresses_and_round_trips() {
    let config = GdConfig::paper_default();
    let data = sensor_style_data(200);

    // Host-side GD: lossless and strongly compressing on redundant data.
    let stream = compress(&config, &data).expect("compression succeeds");
    assert_eq!(decompress(&stream).expect("decompression succeeds"), data);
    let ratio = stream.serialized_len() as f64 / data.len() as f64;
    assert!(
        ratio < 0.2,
        "expected strong compression, got ratio {ratio}"
    );

    // The same payloads through the simulated two-switch deployment.
    let mut deployment =
        ZipLineDeployment::new(DeploymentConfig::fast_test()).expect("valid deployment");
    let payloads: Vec<Vec<u8>> = data.chunks(32).map(|c| c.to_vec()).collect();
    let received = deployment.run_payloads(&payloads).expect("simulation runs");
    assert_eq!(received, payloads, "in-network round trip is lossless");
}

#[test]
fn engine_stream_flow_compresses_and_round_trips() {
    // The engine_stream example flow at reduced scale: records stream
    // through the sharded engine into wire payloads, and the mirrored
    // decompressor restores them byte-exactly.
    let builder = EngineBuilder::new()
        .shards(8)
        .workers(4)
        .spawn(SpawnPolicy::Threads); // exercise the threaded path in CI
    let mut decoder = builder.build_decompressor().expect("valid decoder config");
    let engine = builder.build().expect("valid engine config");
    let data = sensor_style_data(300);

    let mut wire = Vec::new();
    let mut stream = PipelinedStream::new(engine, 64, |packet_type, bytes: &[u8]| {
        wire.push((packet_type, bytes.to_vec()));
    })
    .expect("valid stream");
    for chunk in data.chunks(32) {
        stream.push_record(chunk).expect("record streams");
    }
    let (_, summary) = stream.finish().expect("stream flushes");
    assert_eq!(summary.bytes_in, data.len() as u64);
    assert!(
        summary.wire_bytes < data.len() as u64 / 2,
        "engine stream compresses the redundant workload"
    );

    let mut restored = Vec::new();
    for (packet_type, bytes) in &wire {
        decoder
            .restore_payload_into(*packet_type, bytes, &mut restored)
            .expect("payload decodes");
    }
    assert_eq!(restored, data, "engine round trip is lossless");
}

#[test]
fn pipelined_ingest_flow_matches_the_synchronous_stream() {
    // The pipelined_ingest example flow at reduced scale: the stream with
    // its engine worker (forced on to exercise the threaded path in CI)
    // emits bit-identical wire output to the stream on the calling thread.
    let data = sensor_style_data(300);

    let sync_engine = EngineBuilder::new()
        .shards(8)
        .workers(4)
        .spawn(SpawnPolicy::Threads)
        .build()
        .expect("valid engine config");
    let mut sync_wire = Vec::new();
    let mut sync_stream = PipelinedStream::new(sync_engine, 64, |packet_type, bytes: &[u8]| {
        sync_wire.push((packet_type, bytes.to_vec()));
    })
    .expect("valid stream");
    assert!(!sync_stream.is_threaded(), "no pipeline depth, no worker");
    for chunk in data.chunks(32) {
        sync_stream.push_record(chunk).expect("record streams");
    }
    sync_stream.finish().expect("stream flushes");

    let piped_engine = EngineBuilder::new()
        .shards(8)
        .workers(4)
        .spawn(SpawnPolicy::Threads)
        .pipelined(2)
        .build()
        .expect("valid engine config");
    let mut piped_wire = Vec::new();
    let mut piped_stream = PipelinedStream::new(piped_engine, 64, |packet_type, bytes: &[u8]| {
        piped_wire.push((packet_type, bytes.to_vec()));
    })
    .expect("engine is pipelined");
    assert!(piped_stream.is_threaded(), "worker forced on");
    for chunk in data.chunks(32) {
        piped_stream.push_record(chunk).expect("record streams");
    }
    let (engine, summary) = piped_stream.finish().expect("stream flushes");
    assert_eq!(piped_wire, sync_wire, "pipelined output is bit-identical");
    assert_eq!(summary.bytes_in, data.len() as u64);
    assert!(engine.stats().is_consistent());
}

#[test]
fn backend_matrix_flow_compresses_and_round_trips() {
    // The engine_backends example flow at reduced scale: the same generic
    // PipelinedStream drives GD, deflate and passthrough over one workload,
    // each restoring byte-exactly through its mirrored decompressor, with
    // passthrough as the ratio floor.
    let data = sensor_style_data(200);

    fn stream_through<B: zipline_repro::zipline_engine::CompressionBackend + Send + 'static>(
        engine: zipline_repro::zipline_engine::CompressionEngine<B>,
        mut decoder: zipline_repro::zipline_engine::EngineDecompressor<B>,
        batch_units: usize,
        data: &[u8],
    ) -> u64 {
        let mut wire = Vec::new();
        let mut stream = PipelinedStream::new(engine, batch_units, |pt, bytes: &[u8]| {
            wire.push((pt, bytes.to_vec()));
        })
        .expect("valid stream");
        stream.push_record(data).expect("record streams");
        let (_, summary) = stream.finish().expect("stream flushes");
        let mut restored = Vec::new();
        for (pt, bytes) in &wire {
            decoder
                .restore_payload_into(*pt, bytes, &mut restored)
                .expect("payload decodes");
        }
        assert_eq!(restored, data, "backend round trip is lossless");
        summary.wire_bytes
    }

    let gd_builder = EngineBuilder::new().shards(4).workers(2);
    let gd_wire = stream_through(
        gd_builder.build().expect("valid GD engine"),
        EngineBuilder::new()
            .shards(4)
            .workers(2)
            .build_decompressor()
            .expect("valid GD decoder"),
        64,
        &data,
    );
    let deflate_wire = stream_through(
        EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build()
            .expect("valid deflate engine"),
        EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build_decompressor()
            .expect("valid deflate decoder"),
        4096,
        &data,
    );
    let floor_wire = stream_through(
        EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build()
            .expect("valid passthrough engine"),
        EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build_decompressor()
            .expect("valid passthrough decoder"),
        4096,
        &data,
    );

    assert_eq!(floor_wire, data.len() as u64, "passthrough is the floor");
    assert!(gd_wire < floor_wire, "GD beats the floor");
    assert!(deflate_wire < floor_wire, "deflate beats the floor");
}
