//! Acceptance suite for the engine stream:
//!
//! * [`PipelinedStream`] output — payload bytes *and* interleaved control
//!   updates — matches the committed golden table (`tests/golden/`) inline
//!   and threaded, and is the same for any shard-independent shape knob
//!   (worker count, spawn policy, pipeline depth), including workloads that
//!   churn the dictionary past capacity (the proptest at the bottom);
//! * the 1-shard/1-worker stream reproduces
//!   [`GdCompressor::compress_batch`]'s records on the wire byte for byte;
//! * edge cases: zero records, dropping the stream mid-batch (channel
//!   closed with data in flight), and a depth-1 bounded channel with the
//!   worker forced on (backpressure engaged on every batch).

mod golden;

use std::cell::RefCell;

use proptest::prelude::*;
use zipline_engine::{
    CompressionEngine, DictionaryUpdate, EngineBuilder, EngineError, GdBackend, PipelinedStream,
    SpawnPolicy,
};
use zipline_gd::codec::GdCompressor;
use zipline_gd::config::GdConfig;
use zipline_gd::error::Result;
use zipline_gd::packet::{PacketType, ZipLinePayload};

/// Result alias for code driving the streams (which surface the engine's
/// typed error, not the bare codec error).
type EngineResult<T> = std::result::Result<T, EngineError>;

/// One element of the wire: a dictionary update or a payload, in
/// emission order (the same shape `engine_equivalence.rs` uses).
#[derive(Debug, Clone, PartialEq, Eq)]
enum WireEvent {
    Update(DictionaryUpdate),
    Payload(PacketType, Vec<u8>),
}

/// Captured output of one stream run: the interleaved event sequence plus
/// the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StreamRun {
    events: Vec<WireEvent>,
    summary: zipline_engine::StreamSummary,
}

fn engine_for(
    gd: GdConfig,
    shards: usize,
    workers: usize,
    spawn: SpawnPolicy,
    depth: usize,
) -> CompressionEngine<GdBackend> {
    EngineBuilder::new()
        .gd(gd)
        .shards(shards)
        .workers(workers)
        .spawn(spawn)
        .pipelined(depth)
        .build()
        .expect("valid engine config")
}

/// Runs `records` through the [`PipelinedStream`].
fn run_pipelined(
    engine: CompressionEngine<GdBackend>,
    batch_units: usize,
    records: &[Vec<u8>],
    with_updates: bool,
) -> EngineResult<StreamRun> {
    let events: RefCell<Vec<WireEvent>> = RefCell::new(Vec::new());
    let sink = |pt: PacketType, bytes: &[u8]| {
        events
            .borrow_mut()
            .push(WireEvent::Payload(pt, bytes.to_vec()));
    };
    let control_sink = with_updates.then_some(|update: &DictionaryUpdate| {
        events.borrow_mut().push(WireEvent::Update(update.clone()));
    });
    let mut stream = PipelinedStream::with_control_sink(engine, batch_units, sink, control_sink)?;
    for record in records {
        stream.push_record(record)?;
    }
    let (_engine, summary) = stream.finish()?;
    Ok(StreamRun {
        events: events.into_inner(),
        summary,
    })
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

#[test]
fn zero_records_emit_nothing() {
    for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads, SpawnPolicy::Auto] {
        let engine = engine_for(GdConfig::paper_default(), 4, 2, spawn, 2);
        let mut emitted = 0usize;
        let stream = PipelinedStream::new(engine, 16, |_, _| emitted += 1).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(emitted, 0, "spawn = {spawn:?}");
        assert_eq!(summary, Default::default(), "spawn = {spawn:?}");
        assert_eq!(engine.stats().chunks_in, 0, "spawn = {spawn:?}");
    }
}

#[test]
fn empty_records_are_free() {
    let engine = engine_for(GdConfig::paper_default(), 4, 2, SpawnPolicy::Threads, 1);
    let mut stream = PipelinedStream::new(engine, 4, |_, _| {}).unwrap();
    for _ in 0..100 {
        stream.push_record(&[]).unwrap();
    }
    let (_, summary) = stream.finish().unwrap();
    assert_eq!(summary.bytes_in, 0);
    assert_eq!(summary.payloads_emitted, 0);
}

/// Dropping the stream closes the channel with batches (and a partial fill)
/// still in flight: the worker must drain and exit without panicking or
/// deadlocking, and nothing is emitted from `drop`.
#[test]
fn drop_mid_batch_closes_the_channel_cleanly() {
    let emitted = RefCell::new(0usize);
    {
        let engine = engine_for(GdConfig::paper_default(), 4, 2, SpawnPolicy::Threads, 1);
        let mut stream =
            PipelinedStream::new(engine, 8, |_, _| *emitted.borrow_mut() += 1).unwrap();
        // Several full batches plus a ragged remainder left in the fill
        // buffer — then the stream is abandoned.
        stream.push_record(&vec![5u8; 32 * 8 * 4 + 7]).unwrap();
    }
    // Whatever was drained before the drop stays below the full stream's
    // payload count; the partial batch is definitely gone.
    let total = *emitted.borrow();
    assert!(
        total <= 32,
        "drop must not flush the pipeline (saw {total})"
    );
}

/// Depth 1 with the worker forced on: every dispatch beyond the first two
/// blocks on the bounded channel until the worker catches up. The stream
/// must make progress and produce the exact inline output.
#[test]
fn depth_one_backpressure_still_produces_identical_output() {
    let gd = GdConfig::paper_default();
    let data: Vec<u8> = (0..32 * 300).map(|i| (i / 96) as u8).collect();
    let records: Vec<Vec<u8>> = data.chunks(65).map(|c| c.to_vec()).collect();

    let inline = run_pipelined(
        engine_for(gd, 4, 2, SpawnPolicy::Inline, 1),
        4,
        &records,
        true,
    )
    .unwrap();
    let piped = run_pipelined(
        engine_for(gd, 4, 2, SpawnPolicy::Threads, 1),
        4,
        &records,
        true,
    )
    .unwrap();
    assert!(piped.summary.payloads_emitted > 10);
    assert_eq!(piped, inline);
}

/// A backend that fails compression on a chosen batch, to exercise the
/// worker's error path end to end.
#[derive(Debug, Default)]
struct FailingBackend {
    batches: usize,
    fail_at: usize,
}

impl zipline_engine::CompressionBackend for FailingBackend {
    type Batch = Vec<u8>;
    type Decompressor = zipline_engine::PassthroughDecompressor;

    fn from_engine_config(_config: &zipline_engine::EngineConfig) -> Result<Self> {
        Ok(Self::default())
    }

    fn codec_id(&self) -> zipline_engine::CodecId {
        zipline_engine::CODEC_PASSTHROUGH
    }

    fn unit_bytes(&self) -> usize {
        1
    }

    fn compress_batch(&mut self, data: &[u8]) -> Result<Self::Batch> {
        self.batches += 1;
        if self.batches == self.fail_at {
            return Err(zipline_gd::error::GdError::InvalidConfig(
                "synthetic mid-stream failure".into(),
            ));
        }
        Ok(data.to_vec())
    }

    fn emit_batch(
        &mut self,
        batch: Self::Batch,
        emit: &mut dyn FnMut(PacketType, &[u8]),
    ) -> Result<()> {
        emit(PacketType::Raw, &batch);
        Ok(())
    }

    fn stats(&self) -> zipline_gd::stats::CompressionStats {
        zipline_gd::stats::CompressionStats::new()
    }

    fn decompressor(&self) -> Result<Self::Decompressor> {
        Ok(Default::default())
    }
}

/// A worker-side compression error surfaces through `push_record` or
/// `finish` instead of hanging the pipeline, for both backings.
#[test]
fn worker_errors_surface_to_the_caller() {
    for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads] {
        let mut engine = CompressionEngine::from_backend(FailingBackend {
            batches: 0,
            fail_at: 3,
        });
        engine.set_pipeline(Some(zipline_engine::PipelineConfig { depth: 1, spawn }));
        let mut stream = PipelinedStream::new(engine, 64, |_, _| {}).unwrap();
        // Six 64-byte batches; the third compress fails. The error may
        // arrive on any push after the failing dispatch or at finish —
        // but it must arrive, and the pipeline must not deadlock.
        let mut result: EngineResult<()> = Ok(());
        for _ in 0..6 {
            result = stream.push_record(&[0xAAu8; 64]);
            if result.is_err() {
                break;
            }
        }
        let final_result = match result {
            Err(e) => Err(e),
            Ok(()) => stream.finish().map(|_| ()),
        };
        let err = final_result.expect_err("the synthetic failure must surface");
        assert!(
            err.to_string().contains("synthetic mid-stream failure"),
            "spawn = {spawn:?}: unexpected error {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Bit-identity pins
// ---------------------------------------------------------------------------

/// The pipelined stream on the calling thread reproduces the golden table.
#[test]
fn golden_table_matches_the_inline_pipelined_stream() {
    golden::check(golden::Runner::Inline, 2);
}

/// The pipelined stream with its worker thread reproduces the golden table.
#[test]
fn golden_table_matches_the_threaded_pipelined_stream() {
    golden::check(golden::Runner::Threaded, 2);
}

/// Rewrites `tests/golden/stream.txt` from the stream in the tree.
#[test]
#[ignore = "rewrites tests/golden/stream.txt"]
fn regenerate() {
    std::fs::write(
        golden::TABLE_PATH,
        golden::actual_table(golden::Runner::Inline, 2),
    )
    .expect("table is writable");
}

/// The 1-shard/1-worker pipelined stream serializes exactly the records
/// `GdCompressor::compress_batch` would produce, payload for payload — the
/// engine's 1-shard invariant extended through the stream.
#[test]
fn single_shard_pipelined_wire_matches_gd_compressor() {
    let gd = GdConfig::paper_default();
    let mut data: Vec<u8> = (0..32 * 64).map(|i| (i / 128) as u8).collect();
    data.extend_from_slice(b"ragged tail");

    // Expected wire: the reference compressor's records, serialized through
    // the same payload codec. One batch spans the whole input so record
    // boundaries agree with a single compress_batch call.
    let batch_units = data.len() / gd.chunk_bytes + 1;
    let mut reference = GdCompressor::new(&gd).unwrap();
    let stream = reference.compress_batch(&data).unwrap();
    let mut expected: Vec<(PacketType, Vec<u8>)> = Vec::new();
    for record in stream.records {
        let payload = match record {
            zipline_gd::codec::Record::NewBasis {
                extra,
                deviation,
                basis,
            } => ZipLinePayload::Uncompressed {
                deviation,
                extra,
                basis,
            },
            zipline_gd::codec::Record::Ref {
                extra,
                deviation,
                id,
            } => ZipLinePayload::Compressed {
                deviation,
                extra,
                id,
            },
            zipline_gd::codec::Record::RawTail { bytes } => ZipLinePayload::Raw(bytes),
        };
        let mut bytes = Vec::new();
        payload.encode_into(&gd, &mut bytes).unwrap();
        expected.push((payload.packet_type(), bytes));
    }

    for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads] {
        let engine = engine_for(gd, 1, 1, spawn, 2);
        let mut emitted: Vec<(PacketType, Vec<u8>)> = Vec::new();
        let mut piped = PipelinedStream::new(engine, batch_units, |pt, bytes: &[u8]| {
            emitted.push((pt, bytes.to_vec()));
        })
        .unwrap();
        piped.push_record(&data).unwrap();
        piped.finish().unwrap();
        assert_eq!(emitted, expected, "spawn = {spawn:?}");
    }
}

/// Pipelined output is a pure function of `(data, shard count, batch
/// size)`: depth, spawn policy and worker count never change a byte or an
/// event.
#[test]
fn pipelined_output_is_pure_in_shape_knobs() {
    let gd = GdConfig::for_parameters(3, 4).unwrap();
    let data: Vec<u8> = (0..512u32).map(|i| (i % 41) as u8).collect();
    let records: Vec<Vec<u8>> = data.chunks(23).map(|c| c.to_vec()).collect();
    let reference = run_pipelined(
        engine_for(gd, 4, 1, SpawnPolicy::Inline, 1),
        16,
        &records,
        true,
    )
    .unwrap();
    for workers in [2usize, 3] {
        for spawn in [SpawnPolicy::Threads, SpawnPolicy::Auto] {
            for depth in [1usize, 2, 4] {
                let run =
                    run_pipelined(engine_for(gd, 4, workers, spawn, depth), 16, &records, true)
                        .unwrap();
                assert_eq!(
                    run, reference,
                    "workers = {workers}, spawn = {spawn:?}, depth = {depth}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Proptest equivalence: threaded == inline
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any shard/worker/depth shape, batch size and record segmentation
    /// — on a dictionary small enough that random bytes churn it
    /// constantly, with or without the updates consumed — the threaded
    /// stream emits the same interleaved event sequence and the same
    /// summary as the inline one.
    #[test]
    fn threaded_equals_inline_under_churn(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        record_len in 1usize..64,
        shard_exp in 0u32..3,
        workers in 1usize..5,
        depth in 1usize..5,
        batch_units in 1usize..48,
        with_updates in any::<bool>(),
    ) {
        // Capacity 4 with m = 3 (1-byte chunks): random data exceeds
        // capacity several-fold, forcing evictions and recycling.
        let gd = GdConfig::for_parameters(3, 2).unwrap();
        let shards = 1usize << shard_exp;
        let records: Vec<Vec<u8>> = data.chunks(record_len).map(|c| c.to_vec()).collect();

        let inline = run_pipelined(
            engine_for(gd, shards, workers, SpawnPolicy::Inline, depth),
            batch_units,
            &records,
            with_updates,
        ).expect("inline stream");
        let threaded = run_pipelined(
            engine_for(gd, shards, workers, SpawnPolicy::Threads, depth),
            batch_units,
            &records,
            with_updates,
        ).expect("threaded stream");
        prop_assert_eq!(threaded, inline);
    }
}
