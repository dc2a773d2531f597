//! Churn bench: live decoder sync on a capacity-exceeding stream.
//!
//! The workload cycles through 4× more distinct bases than the dictionary
//! holds (64 identifiers, 32-byte chunks), each basis appearing twice — the
//! regime where identifiers are constantly evicted and recycled, and where
//! a post-hoc dictionary snapshot would alias earlier frames. The groups
//! measure what keeping a decoder in sync costs:
//!
//! * `engine_batch` — raw engine compression of the churny stream (no
//!   streaming front-end), the floor;
//! * `live_sync_stream` — an inline `PipelinedStream` with the update
//!   journal drained and every install/evict handed to a control sink;
//! * `live_sync_frames` — the full `EngineHostPath`, control frames
//!   serialized in-band through `EngineControlPlane`.
//!
//! Single-core container: compare against the committed `BENCH_PR3.json`
//! baselines, not wall-clock claims. Regenerate with
//! `BENCH_JSON=bench.jsonl cargo bench -p zipline-bench --bench dictionary_churn`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use zipline::host::{EngineHostPath, HostPathConfig};
use zipline_engine::{CompressionEngine, EngineConfig, PipelinedStream, SpawnPolicy};
use zipline_gd::GdConfig;
use zipline_traces::{ChurnWorkload, ChurnWorkloadConfig};

/// 64 identifiers, 32-byte chunks: small enough that the workload below
/// recycles identifiers continuously.
fn churny_gd() -> GdConfig {
    GdConfig::for_parameters(8, 6).unwrap()
}

fn engine_config(gd: GdConfig) -> EngineConfig {
    EngineConfig {
        gd,
        shards: 4,
        workers: 4,
        spawn: SpawnPolicy::Auto,
    }
}

fn bench_dictionary_churn(c: &mut Criterion) {
    let gd = churny_gd();
    // 4x the identifier space of distinct bases, each twice in a row: the
    // second appearance compresses to a `Ref` whose identifier is evicted
    // soon after (the shared `zipline_traces::churn` fixture).
    let data = ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(
        gd.dictionary_capacity(),
        4,
        gd.chunk_bytes,
    ))
    .bytes();

    let mut group = c.benchmark_group("dictionary_churn");
    group.throughput(Throughput::Bytes(data.len() as u64));

    // Floor: the engine alone on the churny stream.
    let mut engine = CompressionEngine::new(engine_config(gd)).unwrap();
    group.bench_function("engine_batch", |b| {
        b.iter(|| black_box(engine.compress_batch(black_box(&data)).unwrap()))
    });

    // Update journal drained per batch, every event handed to the control
    // sink interleaved with the payloads. The stream takes the engine by
    // value and hands it back, so it carries over between iterations.
    let mut engine = Some(CompressionEngine::new(engine_config(gd)).unwrap());
    group.bench_function("live_sync_stream", |b| {
        b.iter(|| {
            let mut sink_bytes = 0u64;
            let mut updates = 0u64;
            let mut stream = PipelinedStream::with_control_sink(
                engine.take().unwrap(),
                64,
                |_, bytes: &[u8]| sink_bytes += bytes.len() as u64,
                Some(|_: &zipline_engine::DictionaryUpdate| updates += 1),
            )
            .unwrap();
            stream.push_record(black_box(&data)).unwrap();
            let (returned, summary) = stream.finish().unwrap();
            engine = Some(returned);
            black_box((summary, sink_bytes, updates))
        })
    });

    // The full host path: control frames serialized through the
    // EngineControlPlane, in-band with the data frames.
    let mut host = EngineHostPath::new(HostPathConfig {
        engine: engine_config(gd),
        batch_chunks: 64,
        ..HostPathConfig::paper_default()
    })
    .unwrap();
    group.bench_function("live_sync_frames", |b| {
        b.iter(|| black_box(host.compress_to_frames(black_box(&data)).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_dictionary_churn);
criterion_main!(benches);
