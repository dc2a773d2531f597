//! PR-9 bench: the multi-tenant flow router's dispatch overhead and its
//! scaling across flow counts.
//!
//! `single_stream` is the no-router baseline: the same total byte volume
//! through one dedicated [`PipelinedStream`]. `router_f<N>` routes the
//! zipf-skewed `ManyFlowsWorkload` interleaving through one [`FlowRouter`]
//! carrying N tenant-scoped flows — the delta over the baseline is the
//! price of per-flow placement, per-tenant accounting and event tagging,
//! and it must stay a bookkeeping-sized delta, not a second compression
//! pass. Flow-count scaling shows partition placement staying O(1) per
//! chunk as flows grow.
//!
//! Snapshots are committed as `BENCH_PR9.json` (regenerate with
//! `BENCH_JSON=bench.jsonl cargo bench -p zipline-bench --bench multi_tenant`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use zipline_engine::tenant::{FlowBatch, FlowKey, FlowRouter, FlowRouterConfig};
use zipline_engine::{EngineBuilder, EngineConfig, PipelinedStream, SpawnPolicy};
use zipline_gd::GdConfig;
use zipline_traces::{FlowChunk, ManyFlowsConfig, ManyFlowsWorkload};

/// Chunks per run; small dictionary (64 identifiers) so the workload's
/// churn styles actually evict.
const CHUNKS: usize = 2048;
const BATCH_UNITS: usize = 8;

fn engine() -> EngineConfig {
    EngineConfig {
        gd: GdConfig::for_parameters(8, 6).unwrap(),
        shards: 4,
        workers: 2,
        spawn: SpawnPolicy::Auto,
    }
}

/// The interleaved tenant-tagged workload, materialized once per flow
/// count so iteration cost stays out of the measurement.
fn interleaving(flows: usize) -> Vec<FlowChunk> {
    let mut config = ManyFlowsConfig::small();
    config.tenants = flows.min(4);
    config.flows = flows;
    config.chunks = CHUNKS;
    ManyFlowsWorkload::new(config).events().collect()
}

fn bench_multi_tenant(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_tenant");

    // Baseline: the same byte volume through one dedicated pipelined
    // stream, no routing layer at all.
    let chunks = interleaving(1);
    let total: u64 = chunks.iter().map(|chunk| chunk.bytes.len() as u64).sum();
    group.throughput(Throughput::Bytes(total));
    group.bench_function("single_stream", |b| {
        b.iter(|| {
            let engine = EngineBuilder::new()
                .config(engine())
                .pipelined(2)
                .build()
                .unwrap();
            let mut wire = 0u64;
            let mut stream = PipelinedStream::new(engine, BATCH_UNITS, |_, bytes: &[u8]| {
                wire += bytes.len() as u64;
            })
            .unwrap();
            for chunk in &chunks {
                stream.push_record(black_box(&chunk.bytes)).unwrap();
            }
            stream.finish().unwrap();
            black_box(wire)
        })
    });

    // The router at increasing flow counts over the same total volume.
    for flows in [1usize, 8, 32] {
        let chunks = interleaving(flows);
        let keys: Vec<FlowKey> = {
            let mut config = ManyFlowsConfig::small();
            config.tenants = flows.min(4);
            config.flows = flows;
            config.chunks = CHUNKS;
            ManyFlowsWorkload::new(config)
                .keys()
                .into_iter()
                .map(|(tenant, flow)| FlowKey::new(tenant, flow))
                .collect()
        };
        let total: u64 = chunks.iter().map(|chunk| chunk.bytes.len() as u64).sum();
        group.throughput(Throughput::Bytes(total));
        group.bench_function(format!("router_f{flows}"), |b| {
            b.iter(|| {
                let mut config = FlowRouterConfig::new(engine());
                config.batch_units = BATCH_UNITS;
                let mut router: FlowRouter = FlowRouter::new(config).unwrap();
                for &key in &keys {
                    router.open_flow(key, 0).unwrap();
                }
                let mut wire = 0u64;
                for chunk in &chunks {
                    router
                        .push(
                            FlowKey::new(chunk.tenant, chunk.flow),
                            black_box(&chunk.bytes),
                        )
                        .unwrap();
                    for event in router.drain_events() {
                        wire += event_bytes(&event);
                    }
                }
                for &key in &keys {
                    router.end_flow(key).unwrap();
                }
                for event in router.drain_events() {
                    wire += event_bytes(&event);
                }
                black_box(wire)
            })
        });
    }
    group.finish();
}

fn event_bytes(flow: &FlowBatch) -> u64 {
    (flow.batch.wire_bytes() + flow.batch.updates().len()) as u64
}

criterion_group!(benches, bench_multi_tenant);
criterion_main!(benches);
