//! The durable store's two costs — journaling on the hot
//! path and rehydration on restart.
//!
//! * `in_memory_stream` vs `durable_stream`: the same churn-heavy stream
//!   through an inline `PipelinedStream` without and with a backing
//!   [`EngineStore`]. The delta is the full commit-then-emit price (CRC-
//!   framing batch and delta records, buffered flushes per batch, one
//!   compaction checkpoint at `finish`). `finish` compacts the store, so
//!   the on-disk logs stay bounded across iterations and every iteration
//!   pays the same write pattern.
//! * `rehydrate_checkpoint`: `EngineStore::open` on a compacted store —
//!   the warm-restart path (parse, CRC-check, rebuild a 64-entry
//!   dictionary from its checkpoint).
//! * `rehydrate_fold`: `EngineStore::open` on a store whose stream was
//!   killed before `finish` — no checkpoint, so recovery replays the whole
//!   delta journal, the worst-case restart.
//!
//! Snapshots are committed as `BENCH_PR6.json` (regenerate with
//! `BENCH_JSON=bench.jsonl cargo bench -p zipline-bench --bench recovery`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;
use zipline_engine::{
    CompressionEngine, EngineBuilder, EngineStore, GdBackend, PipelinedStream, SpawnPolicy,
};
use zipline_gd::config::GdConfig;
use zipline_traces::{ChurnWorkload, ChurnWorkloadConfig};

/// Chunks per committed batch.
const BATCH_UNITS: usize = 64;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "zipline-bench-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 64-identifier engine matched to the churn workload below; its batches
/// carry control records too (the realistic shape).
fn builder() -> EngineBuilder {
    EngineBuilder::new()
        .gd(GdConfig::for_parameters(8, 6).unwrap())
        .shards(4)
        .workers(2)
        .spawn(SpawnPolicy::Inline)
}

/// Twice as many distinct bases as identifiers, each repeated twice:
/// every batch learns, evicts and emits — the store journals all of it.
fn churny_data() -> Vec<u8> {
    ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(64, 2, 32)).bytes()
}

/// Streams `data` through the engine in `slot`, which the stream hands
/// back at `finish`.
fn run_stream(slot: &mut Option<CompressionEngine<GdBackend>>, data: &[u8]) -> u64 {
    let engine = slot.take().expect("engine returned by finish");
    let mut wire = 0u64;
    let mut stream = PipelinedStream::new(engine, BATCH_UNITS, |_, bytes: &[u8]| {
        wire += bytes.len() as u64;
    })
    .unwrap();
    stream.push_record(black_box(data)).unwrap();
    let (engine, _) = stream.finish().unwrap();
    *slot = Some(engine);
    wire
}

fn bench_recovery(c: &mut Criterion) {
    let data = churny_data();
    let mut group = c.benchmark_group("recovery");
    group.throughput(Throughput::Bytes(data.len() as u64));

    // Baseline: the same stream with no store attached.
    let mut plain = Some(builder().build().unwrap());
    group.bench_function("in_memory_stream", |b| {
        b.iter(|| black_box(run_stream(&mut plain, &data)))
    });

    // Journaled: every batch commits to disk before the sinks see a byte.
    let durable_dir = bench_dir("stream");
    let mut durable = Some(builder().durable(durable_dir.clone()).build().unwrap());
    group.bench_function("durable_stream", |b| {
        b.iter(|| black_box(run_stream(&mut durable, &data)))
    });
    drop(durable);

    // Warm restart off a compacted store: one checkpoint, no fold.
    let checkpoint_dir = bench_dir("checkpoint");
    let mut seeded = Some(builder().durable(checkpoint_dir.clone()).build().unwrap());
    run_stream(&mut seeded, &data);
    drop(seeded);
    group.bench_function("rehydrate_checkpoint", |b| {
        b.iter(|| {
            let (store, warm) = EngineStore::open(&checkpoint_dir).unwrap();
            black_box(warm.expect("store is warm").dictionary.delta_seq);
            drop(store);
        })
    });

    // Worst-case restart: the writer died mid-stream, so open() folds the
    // full delta journal.
    let fold_dir = bench_dir("fold");
    let crashed = builder().durable(fold_dir.clone()).build().unwrap();
    let mut stream = PipelinedStream::new(crashed, BATCH_UNITS, |_, _| {}).unwrap();
    stream.push_record(&data).unwrap();
    // No finish: the store keeps its raw journal, checkpoint-free.
    drop(stream);
    group.bench_function("rehydrate_fold", |b| {
        b.iter(|| {
            let (store, warm) = EngineStore::open(&fold_dir).unwrap();
            let warm = warm.expect("store is warm");
            assert!(!warm.exact, "fold path must be the one measured");
            black_box(warm.dictionary.delta_seq);
            drop(store);
        })
    });

    group.finish();
    for dir in [durable_dir, checkpoint_dir, fold_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
