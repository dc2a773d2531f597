//! Pipelined ingest on a producer-consumer workload.
//!
//! The scenario the pipeline exists for: a producer generates records with
//! non-trivial per-record cost (here a word-mixing pass standing in for NIC
//! ingest work — checksumming, parsing, copying out of a ring), and the
//! engine compresses them. Inline, producer and engine take turns;
//! pipelined, the producer fills the next batch while the engine worker
//! compresses the previous one, so on a multi-core host wall-clock
//! approaches `max(produce, compress)` instead of their sum.
//!
//! On a single-core host (such as the CI container) [`SpawnPolicy::Auto`]
//! degrades the pipelined stream to inline execution: the numbers then
//! measure the stream's own bookkeeping, the regression the committed
//! `BENCH_PR5.json` baseline tracks. The `_d<N>` suffix is the pipeline
//! depth (batches in flight before ingest blocks).
//!
//! Snapshots are committed as `BENCH_PR5.json` (regenerate with
//! `BENCH_JSON=bench.jsonl cargo bench -p zipline-bench --bench pipelined_ingest`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use zipline_engine::{CompressionEngine, EngineBuilder, GdBackend, PipelinedStream, SpawnPolicy};
use zipline_gd::GdConfig;

/// Records per stream run and bytes per record (4 chunks each).
const RECORDS: usize = 256;
const RECORD_BYTES: usize = 128;

/// Simulated per-record producer cost: an xor-rotate mixing pass over the
/// record, cheap enough to stay realistic for NIC-adjacent work but heavy
/// enough that overlapping it with compression is worth a thread.
fn produce_record(seed: u64, out: &mut [u8; RECORD_BYTES]) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (i, byte) in out.iter_mut().enumerate() {
        // Sensor-style redundancy: most bytes repeat across records so the
        // dictionary deduplicates, with a little keyed noise.
        state = state.rotate_left(7) ^ (i as u64);
        *byte = if i % 32 < 28 {
            (i % 32) as u8
        } else {
            (state & 0x03) as u8
        };
    }
}

fn builder(depth: usize) -> EngineBuilder {
    EngineBuilder::new()
        .gd(GdConfig::paper_default())
        .shards(8)
        .workers(4)
        .spawn(SpawnPolicy::Auto)
        .pipelined(depth)
}

fn bench_pipelined_ingest(c: &mut Criterion) {
    let total_bytes = (RECORDS * RECORD_BYTES) as u64;
    let mut group = c.benchmark_group("pipelined_ingest");
    group.throughput(Throughput::Bytes(total_bytes));

    // Pipelined at several depths. The engine is threaded through an Option
    // because the stream owns it for the duration of each run.
    for depth in [1usize, 2, 4] {
        let mut slot: Option<CompressionEngine<GdBackend>> = Some(builder(depth).build().unwrap());
        group.bench_function(format!("pipelined_d{depth}"), |b| {
            b.iter(|| {
                let engine = slot.take().expect("engine returned by finish");
                let mut wire = 0u64;
                let mut stream = PipelinedStream::new(engine, 64, |_, bytes: &[u8]| {
                    wire += bytes.len() as u64;
                })
                .unwrap();
                let mut record = [0u8; RECORD_BYTES];
                for i in 0..RECORDS {
                    produce_record(i as u64, &mut record);
                    stream.push_record(black_box(&record)).unwrap();
                }
                let (engine, _summary) = stream.finish().unwrap();
                slot = Some(engine);
                black_box(wire)
            })
        });
    }

    // The producer alone, for reading the overlap headroom off the report:
    // pipelined wall-clock can at best approach max(producer, compress).
    group.bench_function("producer_only", |b| {
        b.iter(|| {
            let mut record = [0u8; RECORD_BYTES];
            let mut acc = 0u64;
            for i in 0..RECORDS {
                produce_record(i as u64, &mut record);
                acc = acc.wrapping_add(record[0] as u64);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipelined_ingest);
criterion_main!(benches);
