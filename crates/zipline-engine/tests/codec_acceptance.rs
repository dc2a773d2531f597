//! PR-10 acceptance suite for the codec registry and self-describing
//! container (ISSUE 10):
//!
//! * `AutoBackend` lands within 5% of the best fixed backend's wire size on
//!   the sensor and DNS workloads — the router must not cost more than the
//!   hindsight-optimal fixed choice plus its probing overhead;
//! * the GD→deflate hybrid beats plain GD on the tracked sensor workload;
//! * the router gzips its prefix sample only where the estimate decides, and
//!   routes exactly as the router that gzipped it on every batch;
//! * property test: tagged mixed-codec streams roundtrip bit-identically
//!   through `PipelinedStream` inline and threaded and the durable store — the
//!   per-batch codec tags survive every path and a `RegistryDecompressor`
//!   reconstructs the input from the tags alone.

use std::cell::RefCell;
use std::path::PathBuf;

use proptest::prelude::*;
use zipline_deflate::Level;
use zipline_engine::{
    AutoBackend, AutoConfig, CodecCursor, CodecId, CommittedEntry, CompressionBackend,
    DeflateBackend, DictionaryUpdate, EngineBuilder, EngineConfig, GdBackend,
    HybridGdDeflateBackend, PipelinedStream, RegistryDecompressor, SpawnPolicy, CODEC_DEFLATE,
    CODEC_GD,
};
use zipline_gd::packet::PacketType;
use zipline_traces::{
    ChunkWorkload, DnsWorkload, DnsWorkloadConfig, SensorWorkload, SensorWorkloadConfig,
};

/// Small inline engine shape shared by every test: paper GD parameters,
/// 4 shards, single worker.
fn config() -> EngineConfig {
    let mut config = EngineConfig::paper_default();
    config.shards = 4;
    config.workers = 1;
    config.spawn = SpawnPolicy::Inline;
    config
}

/// Total wire bytes `backend` produces over `data`, batch by batch — the
/// apples-to-apples ratio probe (every backend sees identical batching).
fn wire_bytes<B: CompressionBackend>(backend: &mut B, data: &[u8], batch_bytes: usize) -> usize {
    let mut total = 0usize;
    for batch in data.chunks(batch_bytes) {
        let compressed = backend.compress_batch(batch).expect("batch compresses");
        backend
            .emit_batch(compressed, &mut |_, bytes| total += bytes.len())
            .expect("batch emits");
    }
    total
}

fn sensor_bytes() -> Vec<u8> {
    let workload = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 16384,
        ..SensorWorkloadConfig::small()
    });
    workload.chunks().flatten().collect()
}

fn dns_bytes() -> Vec<u8> {
    let workload = DnsWorkload::new(DnsWorkloadConfig {
        queries: 16384,
        ..DnsWorkloadConfig::small()
    });
    workload.chunks().flatten().collect()
}

/// ISSUE-10 acceptance: on both evaluation workloads the auto router's
/// total wire size is within 5% of the best *fixed* backend — probing and
/// hysteresis are allowed to cost something, but not more than that.
#[test]
fn auto_is_within_5_percent_of_the_best_fixed_backend_on_sensor_and_dns() {
    let config = config();
    let batch_bytes = 64 * config.gd.chunk_bytes;
    for (name, data) in [("sensor", sensor_bytes()), ("dns", dns_bytes())] {
        let gd = wire_bytes(&mut GdBackend::new(config).unwrap(), &data, batch_bytes);
        let deflate = wire_bytes(&mut DeflateBackend::default(), &data, batch_bytes);
        let auto = wire_bytes(
            &mut AutoBackend::new(config, AutoConfig::default()).unwrap(),
            &data,
            batch_bytes,
        );
        let best = gd.min(deflate);
        assert!(
            auto as f64 <= best as f64 * 1.05,
            "{name}: auto {auto} B exceeds best fixed ({best} B: gd {gd}, \
             deflate {deflate}) by more than 5%"
        );
    }
}

/// ISSUE-10 acceptance: gzipping the GD residue beats plain GD on the
/// tracked sensor workload — the cross-chunk redundancy GD's per-chunk
/// deviations leave behind is real, not a synthetic artifact.
#[test]
fn hybrid_beats_plain_gd_on_the_sensor_workload() {
    let config = config();
    let batch_bytes = 64 * config.gd.chunk_bytes;
    let data = sensor_bytes();
    let gd = wire_bytes(&mut GdBackend::new(config).unwrap(), &data, batch_bytes);
    let hybrid = wire_bytes(
        &mut HybridGdDeflateBackend::new(config, Level::Default).unwrap(),
        &data,
        batch_bytes,
    );
    assert!(
        hybrid < gd,
        "hybrid ({hybrid} B) must beat plain GD ({gd} B) on the sensor workload"
    );
}

// ---------------------------------------------------------------------------
// Lazy prefix estimate routes like the eager one
// ---------------------------------------------------------------------------

/// `AutoBackend`'s decision table as it stood when the router gzipped the
/// prefix sample of *every* batch: the reference the lazy router must agree
/// with, batch by batch.
struct EagerRouter {
    auto: AutoConfig,
    current: CodecId,
    batches: u64,
    gd_run: u64,
    gd_ratio: Option<f64>,
    switches: u64,
}

impl EagerRouter {
    fn new(auto: AutoConfig) -> Self {
        Self {
            auto,
            current: CODEC_GD,
            batches: 0,
            gd_run: 0,
            gd_ratio: None,
            switches: 0,
        }
    }

    /// The routed codec and whether the batch's measured ratio feeds the
    /// EWMA.
    fn route(&mut self, data: &[u8]) -> (CodecId, bool) {
        let sample = &data[..data.len().min(self.auto.sample_bytes.max(1))];
        let member = zipline_deflate::gzip_compress(sample, Level::Fast);
        let deflate_est = member.len() as f64 / sample.len().max(1) as f64;
        let choice = match self.gd_ratio {
            None if self.batches == 0 => CODEC_DEFLATE,
            None => CODEC_GD,
            Some(_) if self.current == CODEC_GD && self.gd_run < self.auto.probe_batches.max(1) => {
                CODEC_GD
            }
            Some(gd_est) if self.current == CODEC_GD => {
                if deflate_est < gd_est * (1.0 - self.auto.hysteresis) {
                    CODEC_DEFLATE
                } else {
                    CODEC_GD
                }
            }
            Some(_) if self.batches.is_multiple_of(self.auto.probe_interval.max(1)) => CODEC_GD,
            Some(gd_est) if gd_est < deflate_est * (1.0 - self.auto.hysteresis) => CODEC_GD,
            Some(_) => CODEC_DEFLATE,
        };
        if choice != self.current {
            self.switches += 1;
            self.current = choice;
        }
        self.batches += 1;
        let measure = choice == CODEC_GD && self.gd_run >= 1;
        self.gd_run = if choice == CODEC_GD {
            self.gd_run + 1
        } else {
            0
        };
        (choice, measure)
    }

    fn observe(&mut self, measured: f64) {
        self.gd_ratio = Some(match self.gd_ratio {
            None => measured,
            Some(ewma) => ewma + self.auto.ewma_alpha * (measured - ewma),
        });
    }
}

/// The deflate estimate is computed only in the two arms of the decision
/// that compare it; the cold start, a measurement window and the periodic
/// probe never read it. Skipping the compression there must not move one
/// routing decision.
#[test]
fn lazy_estimate_routes_every_batch_like_the_eager_router() {
    let config = config();
    let chunk = config.gd.chunk_bytes;
    let mut mixes = vec![("sensor", sensor_bytes()), ("dns", dns_bytes())];
    for seed in 0..4u64 {
        mixes.push(("mixed", mixed_data(seed, 6, 64, chunk)));
    }
    let frequent_probes = AutoConfig {
        probe_interval: 8,
        ..AutoConfig::default()
    };
    for auto_config in [AutoConfig::default(), frequent_probes] {
        for (name, data) in &mixes {
            for batch_chunks in [16usize, 64, 256] {
                let mut auto = AutoBackend::new(config, auto_config).unwrap();
                let mut eager = EagerRouter::new(auto_config);
                let mut routed = [0usize; 2];
                for (i, batch) in data.chunks(batch_chunks * chunk).enumerate() {
                    let (expected, measure) = eager.route(batch);
                    let compressed = auto.compress_batch(batch).unwrap();
                    let codec = auto.batch_codec_id(&compressed);
                    assert_eq!(
                        codec, expected,
                        "{name}, {batch_chunks}-chunk batches: batch {i} routed differently"
                    );
                    routed[(codec == CODEC_DEFLATE) as usize] += 1;
                    let mut wire = 0usize;
                    auto.emit_batch(compressed, &mut |_, bytes| wire += bytes.len())
                        .unwrap();
                    if measure {
                        eager.observe(wire as f64 / batch.len() as f64);
                    }
                }
                assert_eq!(auto.switches(), eager.switches, "{name}: switch count");
                assert!(routed[0] > 0 && routed[1] > 0, "{name}: both codecs ran");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tagged mixed-codec roundtrip property
// ---------------------------------------------------------------------------

/// One element of the tagged wire in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Update(DictionaryUpdate),
    Payload(Option<CodecId>, PacketType, Vec<u8>),
}

/// Mixed workload: alternating GD-friendly segments (few chunk bases,
/// sparse deviations) and deflate-friendly segments (every chunk a fresh
/// basis, but text-like low-entropy bytes), so the auto router has a reason
/// to switch codecs mid-stream.
fn mixed_data(
    seed: u64,
    segments: usize,
    chunks_per_segment: usize,
    chunk_bytes: usize,
) -> Vec<u8> {
    let mut data = Vec::new();
    for s in 0..segments {
        for i in 0..chunks_per_segment {
            let mut chunk = vec![0u8; chunk_bytes];
            if (s + seed as usize).is_multiple_of(2) {
                // GD territory.
                chunk[0] = ((seed >> (s % 8)) as usize % 5) as u8;
                chunk[8] = 0xA5;
                if i % 7 == 0 {
                    chunk[20] ^= 0x10;
                }
            } else {
                // Deflate territory.
                for (j, byte) in chunk.iter_mut().enumerate() {
                    *byte = ((seed as usize + s * 131 + i * 17 + j * 7) % 9) as u8 + b'a';
                }
            }
            data.extend_from_slice(&chunk);
        }
    }
    data
}

fn auto_builder(dir: Option<&PathBuf>) -> EngineBuilder<AutoBackend> {
    let config = config();
    let mut builder = EngineBuilder::new().config(config);
    if let Some(dir) = dir {
        builder = builder.durable(dir.clone());
    }
    builder.backend(AutoBackend::new(config, AutoConfig::default()).expect("auto builds"))
}

/// Runs `data` through a tagged inline `PipelinedStream`, collecting the
/// interleaved events with each payload's codec tag sampled off the cursor.
fn run_tagged_stream(
    dir: Option<&PathBuf>,
    data: &[u8],
    batch_units: usize,
    finish: bool,
) -> Vec<Event> {
    let engine = auto_builder(dir).build().expect("engine builds");
    let events: RefCell<Vec<Event>> = RefCell::new(Vec::new());
    let cursor = CodecCursor::new();
    let sampled = cursor.clone();
    let sink = |pt: PacketType, bytes: &[u8]| {
        events
            .borrow_mut()
            .push(Event::Payload(sampled.get(), pt, bytes.to_vec()));
    };
    let control_sink = Some(|update: &DictionaryUpdate| {
        events.borrow_mut().push(Event::Update(update.clone()));
    });
    let mut stream = PipelinedStream::with_control_sink(engine, batch_units, sink, control_sink)
        .expect("stream builds");
    stream.set_codec_cursor(cursor);
    stream.push_record(data).expect("push succeeds");
    if finish {
        stream.finish().expect("finish succeeds");
    } else {
        drop(stream);
    }
    events.into_inner()
}

/// Applies `events` to a fresh registry decoder, returning the restored
/// byte stream. Panics (failing the test) on any unknown tag or misorder.
fn decode(events: &[Event]) -> Vec<u8> {
    let mut decoder = RegistryDecompressor::new(config(), CODEC_GD).expect("decoder builds");
    let mut out = Vec::new();
    for event in events {
        match event {
            Event::Update(update) => decoder.apply_update(update).expect("update applies"),
            Event::Payload(codec, pt, bytes) => decoder
                .restore_payload_tagged(*codec, *pt, bytes, &mut out)
                .expect("payload decodes"),
        }
    }
    out
}

/// A deterministic mixed stream routes through *both* codecs and every
/// payload leaves tagged — the self-describing container in one picture.
#[test]
fn mixed_stream_is_fully_tagged_and_uses_both_codecs() {
    let chunk = config().gd.chunk_bytes;
    let data = mixed_data(0, 6, 64, chunk);
    let events = run_tagged_stream(None, &data, 16, true);
    let tags: Vec<CodecId> = events
        .iter()
        .filter_map(|e| match e {
            Event::Payload(codec, ..) => Some(codec.expect("tagging backend tags every payload")),
            Event::Update(_) => None,
        })
        .collect();
    assert!(tags.contains(&CODEC_GD), "GD batches appear");
    assert!(tags.contains(&CODEC_DEFLATE), "deflate batches appear");
    assert_eq!(decode(&events), data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tagged mixed-codec streams roundtrip bit-identically through the
    /// inline stream, the threaded stream and the durable store.
    #[test]
    fn tagged_mixed_codec_streams_roundtrip_bit_identically(
        seed in any::<u64>(),
        segments in 2usize..5,
        batches_per_segment in 1usize..4,
    ) {
        let chunk = config().gd.chunk_bytes;
        let batch_units = 16usize;
        let data = mixed_data(seed, segments, batches_per_segment * batch_units, chunk);

        // Path 1: the inline stream.
        let reference = run_tagged_stream(None, &data, batch_units, true);
        prop_assert!(reference.iter().all(|e| !matches!(e, Event::Payload(None, ..))),
            "a tagging backend leaves no payload untagged");
        prop_assert_eq!(decode(&reference), data.clone());

        // Path 2: the threaded stream — byte- and tag-identical to path 1.
        let engine = auto_builder(None)
            .pipelined(2)
            .spawn(SpawnPolicy::Threads)
            .build()
            .expect("engine builds");
        let events: RefCell<Vec<Event>> = RefCell::new(Vec::new());
        let cursor = CodecCursor::new();
        let sampled = cursor.clone();
        let sink = |pt: PacketType, bytes: &[u8]| {
            events.borrow_mut().push(Event::Payload(sampled.get(), pt, bytes.to_vec()));
        };
        let control_sink = Some(|update: &DictionaryUpdate| {
            events.borrow_mut().push(Event::Update(update.clone()));
        });
        let mut stream = PipelinedStream::with_control_sink(engine, batch_units, sink, control_sink)
            .expect("stream builds");
        stream.set_codec_cursor(cursor);
        stream.push_record(&data).expect("push succeeds");
        stream.finish().expect("finish succeeds");
        let pipelined = events.into_inner();
        prop_assert_eq!(&pipelined, &reference);

        // Path 3: durable store — a killed writer's journal preserves the
        // tags, and the committed prefix decodes bit-identically.
        let dir = std::env::temp_dir()
            .join(format!("zipline-codec-acceptance-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let emitted = run_tagged_stream(Some(&dir), &data, batch_units, false);
        let mut reopened = auto_builder(Some(&dir)).build().expect("engine reopens");
        let warm = reopened.take_warm_start().expect("store is warm");
        let committed: Vec<Event> = warm
            .committed
            .into_iter()
            .map(|entry| match entry {
                CommittedEntry::Frame { packet_type, codec, bytes } => {
                    Event::Payload(codec, packet_type, bytes)
                }
                CommittedEntry::Control(update) => Event::Update(update),
            })
            .collect();
        prop_assert_eq!(&committed, &emitted, "journal preserves order and tags");
        let restored = decode(&committed);
        prop_assert_eq!(&restored[..], &data[..warm.bytes_in as usize]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
