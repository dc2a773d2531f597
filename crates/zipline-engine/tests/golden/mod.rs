//! The golden stream table: the engine stream's output bits, pinned per
//! batch. It was generated by the synchronous stream the engine had before
//! `PipelinedStream` became its only stream, and is checked against
//! `PipelinedStream` inline and threaded.
//!
//! Every case runs one input (sensor, campus DNS, or a churn workload whose
//! dictionary is small enough that identifiers recycle) through one backend
//! (GD, deflate, passthrough, hybrid, auto) at 1, 2 and 8 shards, with the
//! dictionary updates consumed. Each finished batch becomes one line of
//! `stream.txt`:
//!
//! `case batch codec payloads wire_bytes payload_fnv updates update_fnv`
//!
//! where `payload_fnv` is FNV-1a 64 over every payload as
//! `type:u8 · len:u32le · bytes` and `update_fnv` over every update as
//! `payloads_before:u64le · update`, the update in the batch body's own
//! encoding (`frame::put_update`). Inputs end in a ragged
//! tail, so the verbatim final flush is pinned too.
//!
//! To regenerate after a change that is *meant* to move bytes:
//! `cargo test --release -p zipline-engine --test pipelined_ingest -- --ignored regenerate`.

// Shared by several test binaries, each of which uses part of it.
#![allow(dead_code)]

use std::cell::RefCell;
use std::fmt::Write as _;

use zipline_deflate::Level;
use zipline_engine::frame::put_update;
use zipline_engine::{
    AutoBackend, AutoConfig, Batch, BatchEvent, BatchSink, CodecId, CompressionBackend,
    DeflateBackend, DictionaryUpdate, EngineBuilder, EngineConfig, HybridGdDeflateBackend,
    PassthroughBackend, PipelinedStream, SpawnPolicy,
};
use zipline_gd::config::GdConfig;
use zipline_gd::packet::PacketType;
use zipline_traces::{
    ChunkWorkload, ChurnWorkload, ChurnWorkloadConfig, DnsWorkload, DnsWorkloadConfig,
    SensorWorkload, SensorWorkloadConfig,
};

pub const TABLE: &str = include_str!("stream.txt");
pub const TABLE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stream.txt");

/// Bytes per batch: 64 GD chunks, or 2 KiB for the byte-unit backends.
const BATCH_BYTES: usize = 2048;
/// Record length the pipelined runs push: not a divisor of anything, so
/// batches fill across record boundaries.
const RECORD_BYTES: usize = 100;
/// Appended to every input so the last batch is a ragged flush.
const TAIL: &[u8] = b"ragged!";
pub const SHARDS: [usize; 3] = [1, 2, 8];
pub const BACKENDS: [&str; 5] = ["gd", "deflate", "passthrough", "hybrid", "auto"];

/// How a case is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `PipelinedStream`, compressing on the calling thread.
    Inline,
    /// `PipelinedStream` with its engine worker thread.
    Threaded,
}

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One batch's table line, accumulated event by event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    codec: Option<CodecId>,
    payloads: u64,
    wire_bytes: u64,
    payload_fnv: u64,
    updates: u64,
    update_fnv: u64,
}

impl Row {
    fn new(codec: Option<CodecId>) -> Self {
        Self {
            codec,
            payloads: 0,
            wire_bytes: 0,
            payload_fnv: FNV_OFFSET,
            updates: 0,
            update_fnv: FNV_OFFSET,
        }
    }

    fn payload(&mut self, packet_type: PacketType, bytes: &[u8]) {
        let tag = match packet_type {
            PacketType::Raw => 1u8,
            PacketType::Uncompressed => 2,
            PacketType::Compressed => 3,
        };
        self.payloads += 1;
        self.wire_bytes += bytes.len() as u64;
        self.payload_fnv = fnv1a64(self.payload_fnv, &[tag]);
        self.payload_fnv = fnv1a64(self.payload_fnv, &(bytes.len() as u32).to_le_bytes());
        self.payload_fnv = fnv1a64(self.payload_fnv, bytes);
    }

    fn update(&mut self, update: &DictionaryUpdate) {
        let mut body = Vec::new();
        put_update(&mut body, update);
        self.updates += 1;
        // Where the update sits: the payloads of the batch ahead of it.
        self.update_fnv = fnv1a64(self.update_fnv, &self.payloads.to_le_bytes());
        self.update_fnv = fnv1a64(self.update_fnv, &body);
    }

    fn line(&self, case: &str, batch: usize) -> String {
        format!(
            "{case} {batch} {} {} {} {:016x} {} {:016x}",
            self.codec.map_or(0, CodecId::as_u8),
            self.payloads,
            self.wire_bytes,
            self.payload_fnv,
            self.updates,
            self.update_fnv
        )
    }
}

/// The stream's sink: one row per finished batch.
struct RowSink<'a>(&'a RefCell<Vec<Row>>);

impl BatchSink for RowSink<'_> {
    fn wants_updates(&self) -> bool {
        true
    }

    fn batch(&mut self, batch: &mut Batch) {
        let mut row = Row::new(batch.codec());
        for event in batch.events() {
            match event {
                BatchEvent::Update(update) => row.update(update),
                BatchEvent::Payload(packet_type, bytes) => row.payload(packet_type, bytes),
            }
        }
        self.0.borrow_mut().push(row);
    }
}

/// One input of the table: its name, GD parameters and bytes.
struct Input {
    name: &'static str,
    gd: GdConfig,
    bytes: Vec<u8>,
}

fn flatten(workload: &dyn ChunkWorkload) -> Vec<u8> {
    let mut bytes: Vec<u8> = workload.chunks().flatten().collect();
    bytes.extend_from_slice(TAIL);
    bytes
}

fn inputs() -> Vec<Input> {
    let paper = GdConfig::paper_default();
    let sensor = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 1024,
        seed: 7,
        ..SensorWorkloadConfig::paper_scale()
    });
    let dns = DnsWorkload::new(DnsWorkloadConfig {
        queries: 768,
        ..DnsWorkloadConfig::small()
    });
    // 32 identifiers (4 per shard at 8 shards) against 8x as many bases,
    // each seen twice: every identifier is evicted and recycled.
    let churn_gd = GdConfig::for_parameters(8, 5).expect("valid GD parameters");
    let churn = ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(
        churn_gd.dictionary_capacity(),
        8,
        churn_gd.chunk_bytes,
    ));
    vec![
        Input {
            name: "sensor",
            gd: paper,
            bytes: flatten(&sensor),
        },
        Input {
            name: "dns",
            gd: paper,
            bytes: flatten(&dns),
        },
        Input {
            name: "churn",
            gd: churn_gd,
            bytes: flatten(&churn),
        },
    ]
}

fn builder(gd: GdConfig, shards: usize, workers: usize, runner: Runner) -> EngineBuilder {
    let spawn = match runner {
        Runner::Threaded => SpawnPolicy::Threads,
        Runner::Inline => SpawnPolicy::Inline,
    };
    EngineBuilder::new()
        .gd(gd)
        .shards(shards)
        .workers(workers)
        .spawn(spawn)
        .pipelined(2)
}

fn run_backend<B: CompressionBackend + Send + 'static>(
    builder: EngineBuilder<B>,
    data: &[u8],
    runner: Runner,
) -> Vec<Row> {
    let engine = builder.build().expect("valid engine");
    let batch_units = BATCH_BYTES / engine.backend().unit_bytes().max(1);
    let rows = RefCell::new(Vec::new());
    let mut stream =
        PipelinedStream::with_batch_sink(engine, batch_units, RowSink(&rows)).expect("stream");
    assert_eq!(stream.is_threaded(), runner == Runner::Threaded);
    for record in data.chunks(RECORD_BYTES) {
        stream.push_record(record).expect("push");
    }
    stream.finish().expect("finish");
    rows.into_inner()
}

fn run_case(
    input: &Input,
    backend: &str,
    shards: usize,
    workers: usize,
    runner: Runner,
) -> Vec<Row> {
    let builder = builder(input.gd, shards, workers, runner);
    let config: EngineConfig = EngineConfig {
        gd: input.gd,
        shards,
        workers,
        spawn: SpawnPolicy::Inline,
    };
    let data = &input.bytes;
    match backend {
        "gd" => run_backend(builder, data, runner),
        "deflate" => run_backend(builder.backend(DeflateBackend::default()), data, runner),
        "passthrough" => run_backend(builder.backend(PassthroughBackend::new()), data, runner),
        "hybrid" => run_backend(
            builder.backend(HybridGdDeflateBackend::new(config, Level::Default).expect("hybrid")),
            data,
            runner,
        ),
        "auto" => run_backend(
            builder.backend(AutoBackend::new(config, AutoConfig::default()).expect("auto")),
            data,
            runner,
        ),
        other => unreachable!("unknown backend {other}"),
    }
}

/// The whole table as `runner` produces it with `workers` engine workers
/// (which, like the spawn policy, must not move a bit).
pub fn actual_table(runner: Runner, workers: usize) -> String {
    let mut table = String::new();
    for input in inputs() {
        for backend in BACKENDS {
            for shards in SHARDS {
                let case = format!("{}-{backend}-s{shards}", input.name);
                for (i, row) in run_case(&input, backend, shards, workers, runner)
                    .iter()
                    .enumerate()
                {
                    writeln!(table, "{}", row.line(&case, i)).expect("writing to a String");
                }
            }
        }
    }
    table
}

/// Asserts that `runner` with `workers` engine workers reproduces the
/// committed table, naming the first differing line.
pub fn check(runner: Runner, workers: usize) {
    let actual = actual_table(runner, workers);
    let mut mismatches = Vec::new();
    let mut expected_lines = TABLE.lines();
    for line in actual.lines() {
        match expected_lines.next() {
            Some(expected) if expected == line => {}
            expected => mismatches.push(format!("  expected {expected:?}\n  actual   {line:?}")),
        }
    }
    let missing = expected_lines.count();
    assert!(
        mismatches.is_empty() && missing == 0,
        "{runner:?} with {workers} workers: {} of {} batches differ from tests/golden/stream.txt ({missing} table \
         lines have no batch); first:\n{}",
        mismatches.len(),
        actual.lines().count(),
        mismatches.first().map_or("", String::as_str)
    );
}
