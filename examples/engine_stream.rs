//! # `zipline-engine` walkthrough: streaming sharded compression
//!
//! The ZipLine paper offloads GD compression to the switch; `zipline-engine`
//! is the complementary host-side engine. This example is a README-style
//! tour of the whole pipeline:
//!
//! 1. build a [`CompressionEngine`] — a sharded dictionary plus a fixed
//!    worker pool — from the paper's GD parameters;
//! 2. stream an IoT sensor workload through a [`PipelinedStream`]: records
//!    go in, wire-ready ZipLine payloads (types 1/2/3) come out batch by
//!    batch, and the stream hands the engine back when it finishes;
//! 3. mirror the stream through an [`EngineDecompressor`] and check the
//!    byte-exact round trip;
//! 4. inspect the per-shard dictionary statistics and the merged
//!    [`DictionarySnapshot`] of the live mappings (what a warm restart
//!    re-announces to a decoder).
//!
//! Run with:
//! ```sh
//! cargo run --release --example engine_stream
//! ```
//!
//! [`CompressionEngine`]: zipline_repro::zipline_engine::CompressionEngine
//! [`PipelinedStream`]: zipline_repro::zipline_engine::PipelinedStream
//! [`EngineDecompressor`]: zipline_repro::zipline_engine::EngineDecompressor
//! [`DictionarySnapshot`]: zipline_repro::zipline_engine::DictionarySnapshot

use zipline_repro::zipline_engine::{EngineBuilder, PipelinedStream, SpawnPolicy};
use zipline_repro::zipline_gd::packet::PacketType;
use zipline_repro::zipline_traces::sensor::{SensorWorkload, SensorWorkloadConfig};
use zipline_repro::zipline_traces::ChunkWorkload;

fn main() {
    // ------------------------------------------------------------------
    // 1. The engine: paper GD parameters, 8 dictionary shards, 4 workers.
    //    Output bytes depend only on the shard count — worker count and
    //    spawn policy are pure wall-clock knobs (SpawnPolicy::Auto spawns
    //    threads only on multi-core hosts).
    // ------------------------------------------------------------------
    let builder = EngineBuilder::new()
        .shards(8)
        .workers(4)
        .spawn(SpawnPolicy::Auto);
    let mut decoder = builder.build_decompressor().expect("valid decoder config");
    let engine = builder.build().expect("valid engine config");
    let config = *engine.config();
    println!(
        "engine: Hamming({}, {}), {} shards x {} ids/shard, {} workers",
        config.gd.n(),
        config.gd.k(),
        config.shards,
        engine.dictionary().shard_capacity(),
        config.workers,
    );

    // ------------------------------------------------------------------
    // 2. Stream a sensor workload through the engine. The sink receives
    //    every wire payload; here we collect them like a NIC queue would.
    // ------------------------------------------------------------------
    let workload = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 20_000,
        sensors: 64,
        readings_per_sensor: 16,
        ..SensorWorkloadConfig::paper_scale()
    });
    let mut wire: Vec<(PacketType, Vec<u8>)> = Vec::new();
    let mut stream = PipelinedStream::new(engine, 256, |packet_type, bytes: &[u8]| {
        wire.push((packet_type, bytes.to_vec()));
    })
    .expect("valid stream");
    stream
        .consume_workload(&workload)
        .expect("workload streams");
    let (engine, summary) = stream.finish().expect("stream flushes");

    let by_type = |t: PacketType| wire.iter().filter(|(pt, _)| *pt == t).count();
    println!(
        "streamed {} B in {} payloads out ({} compressed, {} uncompressed, {} raw)",
        summary.bytes_in,
        summary.payloads_emitted,
        by_type(PacketType::Compressed),
        by_type(PacketType::Uncompressed),
        by_type(PacketType::Raw),
    );
    println!(
        "wire bytes: {} ({:.3} of input)",
        summary.wire_bytes,
        summary.wire_bytes as f64 / summary.bytes_in as f64
    );

    // ------------------------------------------------------------------
    // 3. Decode side: a mirrored sharded decompressor rebuilds the
    //    dictionary from the payload stream itself.
    // ------------------------------------------------------------------
    let mut restored = Vec::new();
    for (packet_type, bytes) in &wire {
        decoder
            .restore_payload_into(*packet_type, bytes, &mut restored)
            .expect("payload decodes");
    }
    let original: Vec<u8> = workload.chunks().flatten().collect();
    assert_eq!(restored, original, "lossless round trip");
    println!("round trip: {} B restored byte-exactly", restored.len());

    // ------------------------------------------------------------------
    // 4. Shard statistics and the snapshot of the live mappings.
    // ------------------------------------------------------------------
    let stats = engine.stats();
    println!(
        "engine stats: {} chunks, {} bases learned, ratio {:.3}",
        stats.chunks_in,
        stats.bases_learned,
        stats.compression_ratio().unwrap_or(1.0)
    );
    let snapshot = engine.snapshot();
    println!(
        "dictionary snapshot: {} mappings across {} shards",
        snapshot.len(),
        snapshot.shard_count
    );
    for (shard, (len, shard_stats)) in snapshot
        .shard_lens
        .iter()
        .zip(&snapshot.shard_stats)
        .enumerate()
    {
        println!(
            "  shard {shard}: {len:>4} bases, {:>6} lookups, {:>6} hits, {} evictions",
            shard_stats.lookups, shard_stats.hits, shard_stats.evictions
        );
    }
    println!("ok");
}
