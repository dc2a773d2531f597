//! Acceptance suite for the durable engine store (ISSUE 6).
//!
//! The crash-recovery property under test: for a stream killed at an
//! arbitrary point, the store recovers a dictionary **bit-identical to a
//! valid committed prefix** of the run, and the frames committed before
//! the kill concatenated with the frames a *resumed* stream produces are
//! **bit-identical** to an uninterrupted run from that batch boundary —
//! no duplicated, lost or silently altered wire bytes. Durability must
//! also be observably free when nothing crashes: a durable stream emits
//! the same bytes as an in-memory one.
//!
//! A stream commits each batch without a checkpoint, so a stream killed
//! mid-flight recovers by folding deltas; the exact (checkpointed) case is
//! driven through [`EngineStore::commit_batch`] by hand, as a caller that
//! checkpoints every commit would.

use std::cell::RefCell;
use std::path::PathBuf;

use zipline_engine::{
    Batch, BatchEvent, CommittedEntry, CompressionBackend, CompressionEngine, DictionaryUpdate,
    EngineBuilder, EngineStore, GdBackend, PipelinedStream, SpawnPolicy,
};
use zipline_gd::config::GdConfig;
use zipline_gd::packet::PacketType;
use zipline_traces::CrashWorkload;

/// One element of the wire in emission order (payload or control update) —
/// the unit the bit-identity assertions compare.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WireEvent {
    Update(DictionaryUpdate),
    Payload(PacketType, Vec<u8>),
}

/// A fresh per-test store directory under the system temp dir.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zipline-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small churny engine: 64 identifiers, 32-byte chunks.
fn builder(dir: Option<&PathBuf>) -> EngineBuilder {
    let mut b = EngineBuilder::new()
        .gd(GdConfig::for_parameters(8, 6).unwrap())
        .shards(4)
        .workers(2)
        .spawn(SpawnPolicy::Inline);
    if let Some(dir) = dir {
        b = b.durable(dir.clone());
    }
    b
}

/// Runs `data` through a [`PipelinedStream`] over `engine`, collecting the
/// interleaved wire events. `finish` controls whether the stream is
/// completed (trailing flush + store compaction) or dropped mid-flight like
/// a crashed process.
fn run_stream(
    engine: CompressionEngine<GdBackend>,
    batch_units: usize,
    data: &[u8],
    finish: bool,
) -> Vec<WireEvent> {
    let events: RefCell<Vec<WireEvent>> = RefCell::new(Vec::new());
    let sink = |pt: PacketType, bytes: &[u8]| {
        events
            .borrow_mut()
            .push(WireEvent::Payload(pt, bytes.to_vec()));
    };
    let control_sink = Some(|update: &DictionaryUpdate| {
        events.borrow_mut().push(WireEvent::Update(update.clone()));
    });
    let mut stream =
        PipelinedStream::with_control_sink(engine, batch_units, sink, control_sink).unwrap();
    stream.push_record(data).unwrap();
    if finish {
        stream.finish().unwrap();
    } else {
        drop(stream);
    }
    events.into_inner()
}

/// Compresses `data` (whole batches only) and commits every batch to
/// `engine`'s store by hand, each with a checkpoint, returning the wire
/// events in commit order. The writer then dies without compacting.
fn commit_with_checkpoints(
    mut engine: CompressionEngine<GdBackend>,
    batch_units: usize,
    data: &[u8],
) -> Vec<WireEvent> {
    let mut store: EngineStore = engine.take_store().expect("durable engine");
    let mut events = Vec::new();
    let mut staged = Batch::default();
    for input in data.chunks_exact(batch_units * 32) {
        let compressed = engine.compress_batch(input).unwrap();
        staged.clear();
        engine
            .backend_mut()
            .emit_batch(compressed, &mut |pt, bytes| staged.push_payload(pt, bytes))
            .unwrap();
        staged.place_updates(engine.take_delta().updates);
        assert!(store.checkpoint_due(), "cadence 1 checkpoints every commit");
        let state = engine.backend().export_dictionary_state();
        store
            .commit_batch(&staged, state.as_ref(), input.len() as u64)
            .unwrap();
        events.extend(staged.events().map(|event| match event {
            BatchEvent::Update(update) => WireEvent::Update(update.clone()),
            BatchEvent::Payload(pt, bytes) => WireEvent::Payload(pt, bytes.to_vec()),
        }));
    }
    events
}

/// The store's committed entries in the same event shape the sinks see.
fn committed_events(committed: Vec<CommittedEntry>) -> Vec<WireEvent> {
    committed
        .into_iter()
        .map(|entry| match entry {
            CommittedEntry::Frame {
                packet_type, bytes, ..
            } => WireEvent::Payload(packet_type, bytes),
            CommittedEntry::Control(update) => WireEvent::Update(update),
        })
        .collect()
}

#[test]
fn durable_stream_emits_the_same_bytes_as_an_in_memory_one() {
    let dir = store_dir("transparent");
    let data = CrashWorkload::exceeding_capacity(64, 4, 32).full().bytes();

    let plain = builder(None).build().unwrap();
    let reference = run_stream(plain, 16, &data, true);

    let mut durable = builder(Some(&dir)).build().unwrap();
    assert!(durable.take_warm_start().is_none(), "fresh store is cold");
    let observed = run_stream(durable, 16, &data, true);

    assert_eq!(observed, reference, "commit-then-emit changes no byte");
    assert!(reference.iter().any(|e| matches!(e, WireEvent::Update(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance property at a batch boundary: kill a writer that
/// checkpointed every commit after N whole batches (no finish, no
/// compaction), restart over the same directory, and the dictionary
/// restores exactly and the committed frames plus the resumed stream's
/// frames are bit-identical to one uninterrupted run.
#[test]
fn killed_stream_resumes_bit_identically_from_the_last_commit() {
    let workload = CrashWorkload::exceeding_capacity(64, 4, 32);
    let data = workload.full().bytes();
    let batch_units = 16usize;
    let chunk = 32usize;

    let reference = run_stream(builder(None).build().unwrap(), batch_units, &data, true);

    // Sweep several kill points (in whole batches) including one past the
    // dictionary's first eviction wave.
    for kill_after_batches in [1usize, 3, 7] {
        let dir = store_dir(&format!("kill-{kill_after_batches}"));
        let cut = kill_after_batches * batch_units * chunk;
        assert!(cut < data.len(), "kill point inside the stream");

        // Phase 1: the doomed writer. Whole batches only, each committed
        // with a checkpoint; it dies without compacting.
        let engine = builder(Some(&dir)).build().unwrap();
        let emitted_before = commit_with_checkpoints(engine, batch_units, &data[..cut]);

        // Phase 2: restart. The store must hand back exactly what phase 1
        // emitted (sinks only see committed batches, and every whole batch
        // was committed) plus the resume cursor.
        let mut engine = builder(Some(&dir)).build().unwrap();
        let warm = engine.take_warm_start().expect("store is warm");
        assert_eq!(warm.batches, kill_after_batches as u64);
        assert_eq!(warm.bytes_in, cut as u64, "resume cursor in input bytes");
        assert!(warm.exact, "cadence-1 checkpoints restore bit-exactly");
        let committed = committed_events(warm.committed);
        assert_eq!(committed, emitted_before, "durable output = emitted output");

        // Phase 3: resume feeding from the recovered cursor.
        let resumed = run_stream(engine, batch_units, &data[cut..], true);

        let mut rejoined = committed;
        rejoined.extend(resumed);
        assert_eq!(
            rejoined, reference,
            "kill after {kill_after_batches} batches: committed ++ resumed \
             frames must be bit-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A kill *mid-batch* loses only the uncommitted tail: the committed
/// prefix is a valid batch boundary, and bytes_in tells the producer how
/// much input to re-feed.
#[test]
fn mid_batch_kill_loses_only_the_uncommitted_tail() {
    let dir = store_dir("mid-batch");
    let workload = CrashWorkload::exceeding_capacity(64, 4, 32);
    let data = workload.full().bytes();
    let batch_units = 16usize;
    // 2 whole batches plus 5 chunks of a third: the tail never commits.
    let cut = (2 * batch_units + 5) * 32;

    let engine = builder(Some(&dir)).build().unwrap();
    let emitted = run_stream(engine, batch_units, &data[..cut], false);

    let mut engine = builder(Some(&dir)).build().unwrap();
    let warm = engine.take_warm_start().expect("store is warm");
    assert_eq!(warm.batches, 2, "the partial third batch never committed");
    assert_eq!(warm.bytes_in, (2 * batch_units * 32) as u64);
    assert_eq!(
        committed_events(warm.committed),
        emitted,
        "everything the sinks saw was committed — nothing more"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stream holds the store caller-side and commits before emitting;
/// inline and threaded, its durable output matches the in-memory stream
/// byte for byte, and after `finish` the store is compacted and
/// re-attached so a reopen warm-starts at the full stream boundary.
#[test]
fn pipelined_durable_stream_matches_and_reattaches_the_store() {
    let data = CrashWorkload::exceeding_capacity(64, 4, 32).full().bytes();
    let batch_units = 16usize;
    let reference = run_stream(builder(None).build().unwrap(), batch_units, &data, true);

    for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads] {
        let dir = store_dir(&format!("piped-{spawn:?}"));
        let engine = builder(Some(&dir))
            .spawn(spawn)
            .pipelined(2)
            .build()
            .unwrap();
        let events: RefCell<Vec<WireEvent>> = RefCell::new(Vec::new());
        let sink = |pt: PacketType, bytes: &[u8]| {
            events
                .borrow_mut()
                .push(WireEvent::Payload(pt, bytes.to_vec()));
        };
        let control_sink = Some(|update: &DictionaryUpdate| {
            events.borrow_mut().push(WireEvent::Update(update.clone()));
        });
        let mut stream =
            PipelinedStream::with_control_sink(engine, batch_units, sink, control_sink).unwrap();
        stream.push_record(&data).unwrap();
        let (engine, _) = stream.finish().unwrap();
        assert_eq!(
            events.into_inner(),
            reference,
            "spawn = {spawn:?}: durable wire diverges"
        );
        let store = engine.store().expect("finish re-attaches the store");
        let batch_bytes = batch_units * 32;
        let whole = (data.len() / batch_bytes) as u64;
        let expected = whole + u64::from(!data.len().is_multiple_of(batch_bytes));
        assert_eq!(store.batches_committed(), expected);
        drop(engine);

        // Reopen: the compacted store warm-starts at the final boundary
        // with the full dictionary.
        let mut reopened = builder(Some(&dir)).build().unwrap();
        let warm = reopened.take_warm_start().expect("store is warm");
        assert_eq!(warm.bytes_in, data.len() as u64);
        assert!(warm.committed.is_empty(), "compaction retired the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A killed *threaded* writer recovers at a commit boundary: the committed
/// prefix plus a resumed run reproduces the uninterrupted wire.
#[test]
fn killed_pipelined_stream_recovers_at_a_commit_boundary() {
    let workload = CrashWorkload::exceeding_capacity(64, 4, 32);
    let data = workload.full().bytes();
    let batch_units = 16usize;
    let cut = workload.crash_offset_bytes();
    assert_eq!(cut % (batch_units * 32), 0, "crash at a batch boundary");

    let reference = run_stream(builder(None).build().unwrap(), batch_units, &data, true);

    let dir = store_dir("piped-kill");
    let engine = builder(Some(&dir))
        .spawn(SpawnPolicy::Threads)
        .pipelined(2)
        .build()
        .unwrap();
    let mut stream = PipelinedStream::new(engine, batch_units, |_, _| {}).unwrap();
    stream.push_record(&data[..cut]).unwrap();
    // Abandon the stream without finish: the worker drains, commits stop at
    // the last whole batch, no compaction happens.
    drop(stream);

    let mut engine = builder(Some(&dir)).build().unwrap();
    let warm = engine.take_warm_start().expect("store is warm");
    // Dropping a threaded stream abandons in-flight shuttles without
    // committing them, so the durable cursor may trail the bytes pushed —
    // but it must sit on a batch boundary at or before the kill point.
    let resume = warm.bytes_in as usize;
    assert!(resume > 0 && resume <= cut, "cursor inside the fed prefix");
    assert!(
        resume.is_multiple_of(batch_units * 32),
        "cursor on a batch boundary"
    );
    assert!(
        !warm.exact,
        "pipelined commits carry no checkpoints; recovery folds the delta log"
    );
    let mut rejoined = committed_events(warm.committed);
    rejoined.extend(run_stream(engine, batch_units, &data[resume..], true));
    assert_eq!(rejoined, reference);
    let _ = std::fs::remove_dir_all(&dir);
}
