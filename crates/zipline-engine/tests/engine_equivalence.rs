//! Property-test suite for the sharded engine (ISSUE 2 acceptance):
//!
//! * engine output decompresses byte-identically to the input for **any**
//!   shard count, worker count and spawn policy;
//! * the compressed stream is a pure function of `(data, shard count)` —
//!   worker count and spawn policy never change a byte;
//! * the 1-shard/1-worker configuration is byte-identical to
//!   [`GdCompressor::compress_batch`], records and statistics included;
//! * [`GdDecompressor::decompress_batch`] (the recycled-scratch batch decode)
//!   equals the per-record reference loop;
//! * the interleaved control+data stream roundtrips bit-exactly for any
//!   shard/worker/spawn shape, including workloads that churn the
//!   dictionary far past capacity — a decoder driven only by the in-order
//!   event stream never sees an identifier it cannot restore — and the
//!   golden stream table (`tests/golden/`) holds at any worker count;
//! * (ISSUE 4) the same 1-shard/1-worker equivalence holds across the
//!   [`CompressionBackend`] trait boundary — the generic engine cannot
//!   drift from `GdCompressor::compress_batch` however it is driven.

mod golden;

use std::cell::RefCell;
use std::collections::HashMap;

use proptest::prelude::*;
use zipline_engine::{
    CompressionBackend, CompressionEngine, DictionaryUpdate, EngineConfig, EngineDecompressor,
    GdBackend, PipelinedStream, SpawnPolicy, UpdateOp,
};
use zipline_gd::bits::BitVec;
use zipline_gd::codec::{
    ChunkCodec, CompressedStream, DecodeScratch, GdCompressor, GdDecompressor,
};
use zipline_gd::config::GdConfig;
use zipline_gd::packet::{PacketType, ZipLinePayload};

/// Small parameters so shards see churn and evictions: m = 3 (1-byte
/// chunks), 6-bit identifiers (64 total, 16 per shard at 4 shards).
fn small_gd() -> GdConfig {
    GdConfig::for_parameters(3, 6).unwrap()
}

fn engine_config(gd: GdConfig, shards: usize, workers: usize, spawn: SpawnPolicy) -> EngineConfig {
    EngineConfig {
        gd,
        shards,
        workers,
        spawn,
    }
}

fn compress_with(config: EngineConfig, data: &[u8]) -> CompressedStream {
    let mut engine = CompressionEngine::new(config).expect("valid engine config");
    engine.compress_batch(data).expect("compression succeeds")
}

fn spawn_of(selector: u8) -> SpawnPolicy {
    match selector % 3 {
        0 => SpawnPolicy::Auto,
        1 => SpawnPolicy::Inline,
        _ => SpawnPolicy::Threads,
    }
}

/// One element of the wire: a dictionary update or a payload, in emission
/// order.
#[derive(Debug, Clone)]
enum WireEvent {
    Update(DictionaryUpdate),
    Payload(PacketType, Vec<u8>),
}

/// Runs `data` through a [`PipelinedStream`] with a control sink, capturing
/// control updates and payloads into one interleaved event sequence.
fn stream_events(config: EngineConfig, batch_chunks: usize, data: &[u8]) -> Vec<WireEvent> {
    let engine = CompressionEngine::new(config).expect("valid engine config");
    let events: RefCell<Vec<WireEvent>> = RefCell::new(Vec::new());
    let sink = |pt: PacketType, bytes: &[u8]| {
        events
            .borrow_mut()
            .push(WireEvent::Payload(pt, bytes.to_vec()));
    };
    let control_sink = |update: &DictionaryUpdate| {
        events.borrow_mut().push(WireEvent::Update(update.clone()));
    };
    let mut stream =
        PipelinedStream::with_control_sink(engine, batch_chunks, sink, Some(control_sink))
            .expect("valid stream");
    stream.push_record(data).expect("push succeeds");
    stream.finish().expect("finish succeeds");
    events.into_inner()
}

/// Replays an interleaved event sequence the way a synced decoder would: updates maintain the `id → basis` table, payloads decode against
/// it. Panics when a compressed payload references an identifier the
/// preceding control traffic has not installed.
fn replay_events(gd: &GdConfig, events: &[WireEvent]) -> Vec<u8> {
    let codec = ChunkCodec::new(gd).expect("valid codec");
    let mut table: HashMap<u64, BitVec> = HashMap::new();
    let mut scratch = DecodeScratch::new();
    let mut out = Vec::new();
    for event in events {
        match event {
            WireEvent::Update(update) => match &update.op {
                UpdateOp::Install { id, basis } => {
                    table.insert(*id, basis.clone());
                }
                UpdateOp::Remove { id } => {
                    table.remove(id);
                }
            },
            WireEvent::Payload(pt, bytes) => {
                match ZipLinePayload::decode(gd, *pt, bytes).expect("well-formed payload") {
                    ZipLinePayload::Raw(raw) => out.extend_from_slice(&raw),
                    ZipLinePayload::Uncompressed {
                        deviation,
                        extra,
                        basis,
                    } => codec
                        .decode_parts_into(&extra, deviation, &basis, &mut scratch, &mut out)
                        .expect("decode succeeds"),
                    ZipLinePayload::Compressed {
                        deviation,
                        extra,
                        id,
                    } => {
                        let basis = table.get(&id).unwrap_or_else(|| {
                            panic!("Ref id {id} not installed before its first use")
                        });
                        codec
                            .decode_parts_into(&extra, deviation, basis, &mut scratch, &mut out)
                            .expect("decode succeeds")
                    }
                }
            }
        }
    }
    out
}

/// The golden stream table is a function of the data, backend, shard count
/// and batch size alone: one worker on the calling thread and four on
/// threads reproduce it.
#[test]
fn golden_stream_table_is_independent_of_worker_count() {
    golden::check(golden::Runner::Inline, 1);
    golden::check(golden::Runner::Threaded, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any (shards, workers, spawn) roundtrips byte-identically through the
    /// mirrored decompressor.
    #[test]
    fn engine_roundtrips_for_any_shape(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        shard_exp in 0u32..4,
        workers in 1usize..6,
        spawn_selector in any::<u8>(),
    ) {
        let config = engine_config(
            small_gd(),
            1usize << shard_exp,
            workers,
            spawn_of(spawn_selector),
        );
        let stream = compress_with(config, &data);
        let mut dec = EngineDecompressor::new(config).expect("valid decoder config");
        prop_assert_eq!(dec.decompress_batch(&stream).expect("decode succeeds"), data);
    }

    /// The stream depends on the shard count only: sweeping workers and
    /// spawn policies at a fixed shard count yields identical bytes.
    #[test]
    fn stream_is_independent_of_worker_count(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        shard_exp in 0u32..4,
    ) {
        let shards = 1usize << shard_exp;
        let reference = compress_with(
            engine_config(small_gd(), shards, 1, SpawnPolicy::Inline),
            &data,
        );
        for workers in [2usize, 3, 5, 8] {
            for spawn in [SpawnPolicy::Threads, SpawnPolicy::Auto] {
                let stream = compress_with(engine_config(small_gd(), shards, workers, spawn), &data);
                prop_assert_eq!(
                    &stream, &reference,
                    "shards = {}, workers = {}, spawn = {:?}", shards, workers, spawn
                );
            }
        }
    }

    /// 1 shard / 1 worker reproduces the single-threaded compressor exactly:
    /// same records, same serialized bytes, same statistics.
    #[test]
    fn one_shard_one_worker_matches_compress_batch(
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let gd = small_gd();
        let engine_stream = compress_with(EngineConfig::single_threaded(gd), &data);
        let mut reference = GdCompressor::new(&gd).expect("valid config");
        let reference_stream = reference.compress_batch(&data).expect("compression succeeds");
        prop_assert_eq!(&engine_stream, &reference_stream);
        prop_assert_eq!(engine_stream.to_bytes(), reference_stream.to_bytes());

        let mut engine = CompressionEngine::new(EngineConfig::single_threaded(gd)).unwrap();
        engine.compress_batch(&data).unwrap();
        prop_assert_eq!(engine.stats(), *reference.stats());
    }

    /// (ISSUE 4) The PR-2/PR-3 invariant asserted across the
    /// `CompressionBackend` trait boundary: a `GdBackend` driven exclusively
    /// through the trait's `compress_batch` in the 1-shard/1-worker config
    /// stays bit-identical to `GdCompressor::compress_batch`, serialized
    /// bytes and statistics included — the generic engine shell cannot
    /// drift from the reference codec.
    #[test]
    fn gd_backend_through_trait_boundary_matches_compress_batch(
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let gd = small_gd();
        let mut backend =
            <GdBackend as CompressionBackend>::from_engine_config(&EngineConfig::single_threaded(gd))
                .expect("valid config");
        let stream =
            CompressionBackend::compress_batch(&mut backend, &data).expect("compression succeeds");
        let mut reference = GdCompressor::new(&gd).expect("valid config");
        let reference_stream = reference.compress_batch(&data).expect("compression succeeds");
        prop_assert_eq!(&stream, &reference_stream);
        prop_assert_eq!(stream.to_bytes(), reference_stream.to_bytes());
        prop_assert_eq!(CompressionBackend::stats(&backend), *reference.stats());
    }

    /// Engine streams with one shard also decode through the plain
    /// (unsharded) decompressor, and vice versa via the serialized format.
    #[test]
    fn one_shard_streams_decode_with_plain_decompressor(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        workers in 1usize..5,
    ) {
        let gd = small_gd();
        let config = engine_config(gd, 1, workers, SpawnPolicy::Auto);
        let stream = compress_with(config, &data);
        let parsed = CompressedStream::from_bytes(&stream.to_bytes()).expect("parses");
        let mut dec = GdDecompressor::new(&gd).expect("valid config");
        prop_assert_eq!(dec.decompress_batch(&parsed).expect("decodes"), data);
    }

    /// The recycled-scratch batch decode equals the per-record reference
    /// loop, statistics included.
    #[test]
    fn batch_decode_matches_record_loop(
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let gd = small_gd();
        let mut comp = GdCompressor::new(&gd).expect("valid config");
        let stream = comp.compress_batch(&data).expect("compression succeeds");

        let mut batch = GdDecompressor::new(&gd).expect("valid config");
        let batch_out = batch.decompress_batch(&stream).expect("batch decode");

        let mut reference = GdDecompressor::new(&gd).expect("valid config");
        let mut reference_out = Vec::new();
        for record in &stream.records {
            reference_out.extend_from_slice(
                &reference.decompress_record(record).expect("record decode"),
            );
        }

        prop_assert_eq!(&batch_out, &reference_out);
        prop_assert_eq!(batch_out, data);
        prop_assert_eq!(batch.stats(), reference.stats());
    }

    /// The interleaved control+data stream roundtrips
    /// bit-exactly for any shard/worker/spawn shape and batch size, on a
    /// configuration whose dictionary (4 identifiers, 16 possible bases)
    /// churns constantly — every `Ref` must be preceded by its install and
    /// recycled identifiers must be retired in order.
    #[test]
    fn live_sync_interleaved_stream_roundtrips_under_churn(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        shard_exp in 0u32..3,
        workers in 1usize..6,
        spawn_selector in any::<u8>(),
        batch_chunks in 1usize..48,
    ) {
        // Capacity 4 with m = 3 (1-byte chunks): random bytes exceed
        // capacity several-fold, forcing evictions and identifier recycling.
        let gd = GdConfig::for_parameters(3, 2).unwrap();
        let config = engine_config(gd, 1usize << shard_exp, workers, spawn_of(spawn_selector));
        let events = stream_events(config, batch_chunks, &data);
        prop_assert_eq!(replay_events(&gd, &events), data);
    }

    /// The interleaved event stream is itself a pure function of
    /// `(data, shard count, batch size)`: worker count and spawn policy
    /// change neither payloads nor control updates.
    #[test]
    fn live_sync_events_independent_of_worker_count(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        shard_exp in 0u32..3,
    ) {
        let gd = GdConfig::for_parameters(3, 2).unwrap();
        let shards = 1usize << shard_exp;
        let reference = stream_events(
            engine_config(gd, shards, 1, SpawnPolicy::Inline),
            16,
            &data,
        );
        for workers in [2usize, 4] {
            for spawn in [SpawnPolicy::Threads, SpawnPolicy::Auto] {
                let events = stream_events(engine_config(gd, shards, workers, spawn), 16, &data);
                prop_assert_eq!(events.len(), reference.len());
                for (a, b) in events.iter().zip(reference.iter()) {
                    match (a, b) {
                        (WireEvent::Update(x), WireEvent::Update(y)) => prop_assert_eq!(x, y),
                        (WireEvent::Payload(tx, bx), WireEvent::Payload(ty, by)) => {
                            prop_assert_eq!(tx, ty);
                            prop_assert_eq!(bx, by);
                        }
                        _ => prop_assert!(false, "event kinds diverge"),
                    }
                }
            }
        }
    }

    /// Paper-parameter smoke property: the threaded engine at realistic
    /// scale roundtrips and stays self-consistent.
    #[test]
    fn paper_params_threaded_roundtrip(
        seed in any::<u8>(),
        chunks in 1usize..80,
    ) {
        let gd = GdConfig::paper_default();
        let config = engine_config(gd, 8, 4, SpawnPolicy::Threads);
        let mut data = Vec::with_capacity(chunks * 32);
        for i in 0..chunks {
            let mut chunk = [0u8; 32];
            chunk[0] = seed.wrapping_add((i % 7) as u8);
            chunk[9] = (i % 3) as u8;
            data.extend_from_slice(&chunk);
        }
        let mut engine = CompressionEngine::new(config).expect("valid config");
        let stream = engine.compress_batch(&data).expect("compression succeeds");
        let mut dec = EngineDecompressor::new(config).expect("valid config");
        prop_assert_eq!(dec.decompress_batch(&stream).expect("decodes"), data);
        prop_assert!(engine.stats().is_consistent());
    }
}
