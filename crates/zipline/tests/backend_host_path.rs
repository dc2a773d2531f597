//! Property tests for the backend-generic [`EngineHostPath`] (ISSUE 4):
//! `DeflateBackend` roundtrips arbitrary record batches bit-exactly through
//! the full host path — records → `PipelinedStream` batching → gzip members →
//! Ethernet frames → decoder-switch forwarding → mirrored decompressor —
//! for **any** shard/worker/spawn shape, and the emitted frame bytes are a
//! pure function of `(data, batch size)`.

use proptest::prelude::*;
use zipline::decoder::{DecoderConfig, ZipLineDecodeProgram};
use zipline::host::{EngineHostPath, HostPathConfig};
use zipline_engine::{DeflateBackend, EngineConfig, SpawnPolicy};
use zipline_gd::packet::PacketType;
use zipline_net::ethernet::EthernetFrame;
use zipline_net::time::SimTime;
use zipline_switch::packet_ctx::PacketContext;
use zipline_switch::program::PipelineProgram;

fn spawn_of(selector: u8) -> SpawnPolicy {
    match selector % 3 {
        0 => SpawnPolicy::Auto,
        1 => SpawnPolicy::Inline,
        _ => SpawnPolicy::Threads,
    }
}

fn host_config(
    shards: usize,
    workers: usize,
    spawn: SpawnPolicy,
    batch_bytes: usize,
) -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            shards,
            workers,
            spawn,
            ..EngineConfig::paper_default()
        },
        batch_chunks: batch_bytes, // unit_bytes == 1 for deflate
        ..HostPathConfig::paper_default()
    }
}

/// Compresses `records` through a deflate host path, returning the frames.
fn deflate_frames(
    shards: usize,
    workers: usize,
    spawn: SpawnPolicy,
    batch_bytes: usize,
    records: &[Vec<u8>],
) -> (EngineHostPath<DeflateBackend>, Vec<EthernetFrame>) {
    let mut host = EngineHostPath::with_backend(
        host_config(shards, workers, spawn, batch_bytes),
        DeflateBackend::default(),
    )
    .expect("valid host config");
    let mut frames = Vec::new();
    for record in records {
        let (batch, _) = host.compress_to_frames(record).expect("compress succeeds");
        frames.extend(batch);
    }
    (host, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary record batches roundtrip bit-exactly through
    /// `PipelinedStream` + `EngineHostPath` for any shard/worker/spawn shape,
    /// with the frames forwarded by the decoder switch program on the way.
    #[test]
    fn deflate_host_path_roundtrips_for_any_shape(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..300),
            1..8,
        ),
        shard_exp in 0u32..4,
        workers in 1usize..6,
        spawn_selector in any::<u8>(),
        batch_bytes in 64usize..2048,
    ) {
        let spawn = spawn_of(spawn_selector);
        let (host, frames) =
            deflate_frames(1 << shard_exp, workers, spawn, batch_bytes, &records);

        // The wire is independent of the worker/shard/spawn axes: the
        // 1/1/inline host path emits byte-identical frames.
        let (_, reference) = deflate_frames(1, 1, SpawnPolicy::Inline, batch_bytes, &records);
        prop_assert_eq!(&frames, &reference);

        // Forward every frame through the decoder switch program (gzip
        // members travel as raw frames and pass through untouched), then
        // restore with the mirrored backend decompressor.
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let data_port = decoder.config().data_egress_port;
        let mut dec = host.decompressor().expect("mirror builds");
        let mut restored = Vec::new();
        for frame in frames {
            let mut ctx = PacketContext::new(0, frame);
            decoder.ingress(&mut ctx, SimTime::ZERO);
            prop_assert_eq!(ctx.egress_port, Some(data_port));
            dec.restore_payload_into(PacketType::Raw, &ctx.frame.payload, &mut restored)
                .expect("member decodes");
        }
        let input: Vec<u8> = records.iter().flatten().copied().collect();
        prop_assert_eq!(restored, input);
        prop_assert_eq!(decoder.stats().decode_failures, 0);
    }
}
