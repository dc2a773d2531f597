//! Contract tests for the live-sync [`DictionaryDelta`] (ISSUE 3):
//!
//! * a decoder that maintains a plain `id → basis` map by applying every
//!   update with `at <= i` before decoding record `i` reconstructs the
//!   stream bit-exactly, even when the workload churns the dictionary far
//!   past capacity;
//! * the delta's ordering guarantees hold: `seq` strictly increasing,
//!   updates sorted by `at`, each eviction's `Remove` immediately preceding
//!   the `Install` that recycles its identifier;
//! * the delta is a pure function of `(data, shard count)` — worker count
//!   and spawn policy never change it;
//! * the post-hoc snapshot provably *cannot* express a churned stream (the
//!   aliasing bug the live protocol fixes), pinned at the engine level.

use std::collections::HashMap;

use zipline_engine::{CompressionEngine, DictionaryDelta, EngineBuilder, SpawnPolicy, UpdateOp};
use zipline_gd::bits::BitVec;
use zipline_gd::codec::{ChunkCodec, DecodeScratch, Record};
use zipline_gd::config::GdConfig;
use zipline_traces::{ChurnWorkload, ChurnWorkloadConfig};

/// 64 identifiers, 32-byte chunks — small enough to churn cheaply.
fn churny_gd() -> GdConfig {
    GdConfig::for_parameters(8, 6).unwrap()
}

fn engine(gd: GdConfig, shards: usize, workers: usize, spawn: SpawnPolicy) -> CompressionEngine {
    EngineBuilder::new()
        .gd(gd)
        .shards(shards)
        .workers(workers)
        .spawn(spawn)
        .build()
        .unwrap()
}

/// `distinct` distinct bases (≥ 3-bit pairwise distance so none fold
/// together), each appearing `repeats` times in a row — the shared
/// `zipline_traces::churn` fixture.
fn churn_workload(distinct: u32, repeats: u32, chunk_bytes: usize) -> Vec<u8> {
    ChurnWorkload::new(ChurnWorkloadConfig {
        distinct,
        repeats,
        chunk_len: chunk_bytes,
    })
    .bytes()
}

/// Decodes one batch's records against an `id → basis` map kept live by the
/// delta: every update with `at <= i` is applied before record `i`.
fn decode_with_delta(
    codec: &ChunkCodec,
    records: &[Record],
    delta: &DictionaryDelta,
    table: &mut HashMap<u64, BitVec>,
    out: &mut Vec<u8>,
) {
    let mut scratch = DecodeScratch::new();
    let mut updates = delta.updates.iter().peekable();
    for (i, record) in records.iter().enumerate() {
        while updates.peek().is_some_and(|u| u.at <= i as u64) {
            match &updates.next().expect("peeked").op {
                UpdateOp::Install { id, basis } => {
                    table.insert(*id, basis.clone());
                }
                UpdateOp::Remove { id } => {
                    table.remove(id);
                }
            }
        }
        match record {
            Record::NewBasis {
                extra,
                deviation,
                basis,
            } => codec
                .decode_parts_into(extra, *deviation, basis, &mut scratch, out)
                .unwrap(),
            Record::Ref {
                extra,
                deviation,
                id,
            } => {
                let basis = table
                    .get(id)
                    .unwrap_or_else(|| panic!("Ref id {id} must be installed before use"));
                codec
                    .decode_parts_into(extra, *deviation, basis, &mut scratch, out)
                    .unwrap()
            }
            Record::RawTail { bytes } => out.extend_from_slice(bytes),
        }
    }
    for update in updates {
        match &update.op {
            UpdateOp::Install { id, basis } => {
                table.insert(*id, basis.clone());
            }
            UpdateOp::Remove { id } => {
                table.remove(id);
            }
        }
    }
}

#[test]
fn delta_replay_decodes_churned_streams_bit_exactly() {
    let gd = churny_gd();
    let codec = ChunkCodec::new(&gd).unwrap();
    // 8x the identifier space, in several batches.
    let data = churn_workload(8 * gd.dictionary_capacity() as u32, 2, gd.chunk_bytes);
    let mut engine = engine(gd, 4, 2, SpawnPolicy::Inline);
    let mut table = HashMap::new();
    let mut out = Vec::new();
    for batch in data.chunks(64 * gd.chunk_bytes) {
        let stream = engine.compress_batch(batch).unwrap();
        let delta = engine.take_delta();
        decode_with_delta(&codec, &stream.records, &delta, &mut table, &mut out);
    }
    assert_eq!(out, data);
    assert!(
        engine.stats().evictions > 0,
        "the workload must recycle identifiers"
    );
    assert!(
        table.len() <= gd.dictionary_capacity(),
        "removes keep the mirrored table bounded by the dictionary capacity"
    );
}

#[test]
fn delta_ordering_guarantees_hold() {
    let gd = churny_gd();
    let data = churn_workload(4 * gd.dictionary_capacity() as u32, 2, gd.chunk_bytes);
    let mut engine = engine(gd, 4, 2, SpawnPolicy::Inline);
    let n_records = (data.len() / gd.chunk_bytes) as u64;
    let mut last_seq: Option<u64> = None;

    for batch in data.chunks(64 * gd.chunk_bytes) {
        engine.compress_batch(batch).unwrap();
        let delta = engine.take_delta();
        assert!(!delta.is_empty(), "every churny batch journals updates");
        let mut pending_remove: Option<u64> = None;
        for window in delta.updates.windows(2) {
            assert!(window[0].at <= window[1].at, "updates sorted by position");
        }
        for update in &delta.updates {
            // seq strictly increases across batches.
            assert!(last_seq.is_none_or(|s| update.seq > s), "monotonic seq");
            last_seq = Some(update.seq);
            assert!(update.at < n_records, "positions lie within the batch");
            match &update.op {
                UpdateOp::Remove { id } => {
                    assert!(pending_remove.is_none(), "removes come singly");
                    pending_remove = Some(*id);
                }
                UpdateOp::Install { id, .. } => {
                    if let Some(removed) = pending_remove.take() {
                        assert_eq!(
                            removed, *id,
                            "an eviction's Remove immediately precedes the Install \
                             recycling the same identifier"
                        );
                    }
                }
            }
        }
        assert!(pending_remove.is_none(), "no dangling Remove");
    }
}

#[test]
fn delta_is_a_pure_function_of_data_and_shard_count() {
    let gd = churny_gd();
    let data = churn_workload(3 * gd.dictionary_capacity() as u32, 3, gd.chunk_bytes);
    for shards in [1usize, 4] {
        let mut reference: Option<DictionaryDelta> = None;
        for workers in [1usize, 2, 5] {
            for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads] {
                let mut engine = engine(gd, shards, workers, spawn);
                engine.compress_batch(&data).unwrap();
                let delta = engine.take_delta();
                match &reference {
                    None => reference = Some(delta),
                    Some(r) => assert_eq!(
                        &delta, r,
                        "shards = {shards}, workers = {workers}, spawn = {spawn:?} \
                         changed the delta"
                    ),
                }
            }
        }
    }
}

/// Engine-level pin of the aliasing bug: decoding a churned stream against
/// the final snapshot resolves pre-eviction `Ref`s to the *latest* basis at
/// their recycled identifier — silent corruption, no decode failure.
#[test]
fn post_hoc_snapshot_aliases_recycled_identifiers() {
    let gd = churny_gd();
    let codec = ChunkCodec::new(&gd).unwrap();
    let data = churn_workload(4 * gd.dictionary_capacity() as u32, 2, gd.chunk_bytes);
    let mut engine = engine(gd, 4, 2, SpawnPolicy::Inline);
    let stream = engine.compress_batch(&data).unwrap();
    assert!(engine.stats().evictions > 0);

    let snapshot_table: HashMap<u64, BitVec> = engine.snapshot().entries.into_iter().collect();
    let mut scratch = DecodeScratch::new();
    let mut out = Vec::new();
    for record in &stream.records {
        match record {
            Record::NewBasis {
                extra,
                deviation,
                basis,
            } => codec
                .decode_parts_into(extra, *deviation, basis, &mut scratch, &mut out)
                .unwrap(),
            Record::Ref {
                extra,
                deviation,
                id,
            } => {
                // The snapshot holds *some* basis for every live id; a
                // pre-eviction Ref gets the wrong one.
                let basis = snapshot_table.get(id).expect("snapshot covers live ids");
                codec
                    .decode_parts_into(extra, *deviation, basis, &mut scratch, &mut out)
                    .unwrap()
            }
            Record::RawTail { bytes } => out.extend_from_slice(bytes),
        }
    }
    assert_ne!(out, data, "snapshot decode must misrestore under churn");
}
