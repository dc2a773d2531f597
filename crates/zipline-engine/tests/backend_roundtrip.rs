//! Property-test suite for the non-GD backends (ISSUE 4 acceptance):
//!
//! * [`DeflateBackend`] roundtrips arbitrary record batches bit-exactly
//!   through [`PipelinedStream`] for **any** shard/worker/spawn shape and batch
//!   size — the engine axes it deliberately ignores must never change its
//!   bytes, and the wire form must always restore;
//! * the deflate wire output itself is a pure function of `(data, batch
//!   boundaries)` — worker count and spawn policy never change a byte;
//! * [`PassthroughBackend`] is the identity on the wire (the ratio floor);
//! * attaching a control sink to a delta-less backend is a
//!   harmless no-op: zero updates, identical payloads.

use proptest::prelude::*;
use zipline_engine::{
    DeflateBackend, DictionaryUpdate, EngineBuilder, PassthroughBackend, PipelinedStream,
    SpawnPolicy,
};
use zipline_gd::packet::PacketType;

fn spawn_of(selector: u8) -> SpawnPolicy {
    match selector % 3 {
        0 => SpawnPolicy::Auto,
        1 => SpawnPolicy::Inline,
        _ => SpawnPolicy::Threads,
    }
}

/// Streams `records` through a deflate engine of the given shape, returning
/// the emitted wire payloads.
fn deflate_wire(
    shards: usize,
    workers: usize,
    spawn: SpawnPolicy,
    batch_units: usize,
    records: &[Vec<u8>],
) -> Vec<(PacketType, Vec<u8>)> {
    let engine = EngineBuilder::new()
        .shards(shards)
        .workers(workers)
        .spawn(spawn)
        .pipelined(2)
        .backend(DeflateBackend::default())
        .build()
        .expect("valid engine shape");
    let mut wire = Vec::new();
    let mut stream = PipelinedStream::new(engine, batch_units, |pt, bytes: &[u8]| {
        wire.push((pt, bytes.to_vec()));
    })
    .expect("valid stream");
    for record in records {
        stream.push_record(record).expect("push succeeds");
    }
    stream.finish().expect("finish succeeds");
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deflate roundtrips arbitrary record batches bit-exactly through the
    /// generic stream for any engine shape, and its wire bytes are
    /// independent of the worker/shard/spawn axes.
    #[test]
    fn deflate_stream_roundtrips_for_any_shape(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            0..12,
        ),
        shard_exp in 0u32..4,
        workers in 1usize..6,
        spawn_selector in any::<u8>(),
        batch_units in 1usize..600,
    ) {
        let wire = deflate_wire(
            1usize << shard_exp,
            workers,
            spawn_of(spawn_selector),
            batch_units,
            &records,
        );
        // Byte-exact restoration through the mirrored decompressor.
        let mut dec = EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build_decompressor()
            .expect("valid decoder");
        let mut restored = Vec::new();
        for (pt, bytes) in &wire {
            prop_assert_eq!(*pt, PacketType::Raw);
            dec.restore_payload_into(*pt, bytes, &mut restored).expect("member decodes");
        }
        let input: Vec<u8> = records.iter().flatten().copied().collect();
        prop_assert_eq!(restored, input);

        // The wire is a pure function of (data, batch boundaries): the
        // 1-shard/1-worker/inline stream emits identical bytes.
        let reference = deflate_wire(1, 1, SpawnPolicy::Inline, batch_units, &records);
        prop_assert_eq!(wire, reference);
    }

    /// Passthrough is the identity on the wire for any shape, and a control
    /// sink attached to it never fires.
    #[test]
    fn passthrough_stream_is_identity_for_any_shape(
        data in proptest::collection::vec(any::<u8>(), 0..800),
        workers in 1usize..5,
        spawn_selector in any::<u8>(),
        batch_units in 1usize..300,
    ) {
        let engine = EngineBuilder::new()
            .workers(workers)
            .spawn(spawn_of(spawn_selector))
            .pipelined(2)
            .backend(PassthroughBackend::new())
            .build()
            .expect("valid engine shape");
        let mut wire = Vec::new();
        let mut updates = 0usize;
        let mut stream = PipelinedStream::with_control_sink(
            engine,
            batch_units,
            |pt, bytes: &[u8]| {
                assert_eq!(pt, PacketType::Raw);
                wire.extend_from_slice(bytes);
            },
            Some(|_: &DictionaryUpdate| updates += 1),
        )
        .expect("valid stream");
        stream.push_record(&data).expect("push succeeds");
        let (engine, summary) = stream.finish().expect("finish succeeds");
        prop_assert_eq!(&wire, &data);
        prop_assert_eq!(summary.wire_bytes, data.len() as u64);
        prop_assert_eq!(summary.control_updates, 0);
        prop_assert_eq!(updates, 0);

        let mut dec = engine.decompressor().expect("valid decoder");
        let mut restored = Vec::new();
        if !wire.is_empty() {
            dec.restore_payload_into(PacketType::Raw, &wire, &mut restored)
                .expect("identity decodes");
        }
        prop_assert_eq!(restored, data);
    }
}
