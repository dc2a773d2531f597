//! Decode-side equivalence and hostile-input suite (ISSUE 23).
//!
//! The GD decoders emit every chunk from a restored-chunk cache
//! ([`zipline_gd::codec::ChunkCache`]): a basis is turned into chunk bytes
//! once per identifier assignment, and a reference to it is a copy, an OR of
//! the carried bits and one bit flip. This suite holds them to a reference
//! that does what the decoders did before the cache existed — mirror the
//! dictionary with the public [`ShardedDictionary`] / [`BasisDictionary`]
//! operations and rebuild **every** chunk with
//! [`ChunkCodec::decode_parts_into`] — byte for byte, [`CompressionStats`]
//! for [`CompressionStats`] and error for error:
//!
//! * over sensor, DNS, [`ChurnWorkload`] and a seeded basis-pool stream whose
//!   carried bits and deviations vary per chunk;
//! * with identifier spaces of 8–64 entries, so identifiers are evicted and
//!   recycled many times over (asserted);
//! * with control updates applied ahead of their payloads
//!   (`apply_update`, as the benchmark's capture replay does), observed only
//!   ([`FlowDecoderPool`]) and absent;
//! * through the payload API and the [`Record`] API;
//! * for 1, 9 and 65 carried bits, so the splice is exercised within a byte,
//!   across bytes and past one 64-bit read;
//! * on hostile input: unassigned, retired and out-of-range identifiers,
//!   an out-of-range deviation, truncated payloads, wrong-length record
//!   fields and recycled identifiers.

use std::cell::RefCell;

use zipline_engine::tenant::{FlowDecoderPool, FlowKey};
use zipline_engine::{
    CompressionEngine, DictionaryUpdate, EngineConfig, EngineDecompressor, PipelinedStream,
    ShardedDictionary, SpawnPolicy, UpdateOp,
};
use zipline_gd::bits::BitVec;
use zipline_gd::codec::{
    ChunkCodec, CompressedStream, DecodeScratch, GdCompressor, GdDecompressor, Record,
};
use zipline_gd::config::GdConfig;
use zipline_gd::dictionary::BasisDictionary;
use zipline_gd::error::{GdError, Result};
use zipline_gd::packet::{PacketType, ZipLinePayload};
use zipline_gd::stats::CompressionStats;
use zipline_traces::{
    ChunkWorkload, ChurnWorkload, ChurnWorkloadConfig, DnsWorkload, DnsWorkloadConfig,
    SensorWorkload, SensorWorkloadConfig,
};

const BATCH_CHUNKS: usize = 64;

// ---------------------------------------------------------------------------
// Configurations and streams
// ---------------------------------------------------------------------------

/// `(label, GD parameters, shards)`: carried bits of 1 (the paper's shape at
/// `m` = 8, 3 and 11), 9 and 65, each with an identifier space small enough
/// to churn.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let shaped = |m, id_bits, chunk_bytes| GdConfig {
        m,
        id_bits,
        chunk_bytes,
        tofino_padding_bits: 0,
    };
    let padded = GdConfig {
        tofino_padding_bits: 8,
        ..shaped(8, 6, 32)
    };
    [
        ("m=8 e=1 padded", padded, 4),
        ("m=3 e=1", GdConfig::for_parameters(3, 2).unwrap(), 2),
        ("m=11 e=1", GdConfig::for_parameters(11, 5).unwrap(), 4),
        ("m=8 e=9", shaped(8, 6, 33), 4),
        ("m=8 e=65", shaped(8, 5, 40), 8),
    ]
    .into_iter()
    .map(|(label, gd, shards)| {
        assert!([1, 9, 65].contains(&gd.extra_bits()), "{label}");
        let config = EngineConfig {
            gd,
            shards,
            workers: 1,
            spawn: SpawnPolicy::Inline,
        };
        (label, config)
    })
    .collect()
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Resizes every chunk of a 32-byte workload to the configuration's chunk
/// size and appends a partial chunk, so every stream ends in a raw tail.
fn resized(chunks: impl Iterator<Item = Vec<u8>>, chunk_bytes: usize) -> Vec<u8> {
    let mut data = Vec::new();
    for mut chunk in chunks {
        chunk.resize(chunk_bytes, 0);
        data.extend_from_slice(&chunk);
    }
    data.extend_from_slice(&b"tail"[..chunk_bytes.min(5) - 1]);
    data
}

/// Chunks drawn from a pool of three times as many random chunks as the
/// dictionary holds, most of them with one random bit flipped: in the
/// Hamming block that is a new deviation over the same basis, in the carried
/// bits the same basis under other carried bits.
fn pool_stream(gd: &GdConfig, chunks: usize) -> Vec<u8> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ gd.chunk_bytes as u64);
    let pool: Vec<Vec<u8>> = (0..3 * gd.dictionary_capacity())
        .map(|_| (0..gd.chunk_bytes).map(|_| rng.next() as u8).collect())
        .collect();
    let mut data = Vec::new();
    let mut hot = 0usize;
    for _ in 0..chunks {
        // A slowly moving window of hot chunks, so there are hits to decode
        // and evictions to survive.
        if rng.next().is_multiple_of(16) {
            hot = (hot + 1) % pool.len();
        }
        let mut chunk = pool[(hot + (rng.next() % 4) as usize) % pool.len()].clone();
        if !rng.next().is_multiple_of(4) {
            let bit = (rng.next() % (gd.chunk_bytes as u64 * 8)) as usize;
            chunk[bit / 8] ^= 0x80 >> (bit % 8);
        }
        data.extend_from_slice(&chunk);
    }
    data
}

fn streams(gd: &GdConfig) -> Vec<(&'static str, Vec<u8>)> {
    let sensor = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 3_000,
        ..SensorWorkloadConfig::small()
    });
    let dns = DnsWorkload::new(DnsWorkloadConfig {
        queries: 3_000,
        ..DnsWorkloadConfig::small()
    });
    let churn = ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(
        gd.dictionary_capacity(),
        6,
        32,
    ));
    vec![
        ("sensor", resized(sensor.chunks(), gd.chunk_bytes)),
        ("dns", resized(dns.chunks(), gd.chunk_bytes)),
        ("churn", resized(churn.chunks(), gd.chunk_bytes)),
        ("pool", pool_stream(gd, 3_000)),
    ]
}

// ---------------------------------------------------------------------------
// The reference: every chunk rebuilt from its basis
// ---------------------------------------------------------------------------

/// What `GdBackendDecompressor` was before it cached restored chunks.
struct Reference {
    gd: GdConfig,
    codec: ChunkCodec,
    dict: ShardedDictionary,
    scratch: DecodeScratch,
    stats: CompressionStats,
}

impl Reference {
    fn new(config: &EngineConfig) -> Self {
        Self {
            gd: config.gd,
            codec: ChunkCodec::new(&config.gd).unwrap(),
            dict: ShardedDictionary::for_config(&config.gd, config.shards).unwrap(),
            scratch: DecodeScratch::new(),
            stats: CompressionStats::new(),
        }
    }

    fn apply_update(&mut self, update: &DictionaryUpdate) -> Result<()> {
        self.dict.apply_update(update)
    }

    fn payload(&mut self, packet_type: PacketType, bytes: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match ZipLinePayload::decode(&self.gd, packet_type, bytes)? {
            ZipLinePayload::Raw(raw) => self.record(&Record::RawTail { bytes: raw }, out),
            ZipLinePayload::Uncompressed {
                deviation,
                extra,
                basis,
            } => self.record(
                &Record::NewBasis {
                    extra,
                    deviation,
                    basis,
                },
                out,
            ),
            ZipLinePayload::Compressed {
                deviation,
                extra,
                id,
            } => self.record(
                &Record::Ref {
                    extra,
                    deviation,
                    id,
                },
                out,
            ),
        }
    }

    fn record(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<()> {
        match record {
            Record::NewBasis {
                extra,
                deviation,
                basis,
            } => {
                let hash = basis.hash_words();
                let shard = self.dict.shard_of_hash(hash);
                self.dict.learn(shard, basis.clone(), hash)?;
                self.codec
                    .decode_parts_into(extra, *deviation, basis, &mut self.scratch, out)?;
            }
            Record::Ref {
                extra,
                deviation,
                id,
            } => {
                let Some(basis) = self.dict.lookup_id_ref(*id, true) else {
                    self.stats.decode_failures += 1;
                    return Err(GdError::UnknownIdentifier(*id));
                };
                self.codec
                    .decode_parts_into(extra, *deviation, basis, &mut self.scratch, out)?;
            }
            Record::RawTail { bytes } => out.extend_from_slice(bytes),
        }
        self.stats.chunks_decoded += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Captured wire events
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WireEvent {
    Update(DictionaryUpdate),
    Payload(PacketType, Vec<u8>),
}

/// `data` through a [`PipelinedStream`] with a control sink: control
/// updates and payloads in emission order, plus the compressor's statistics.
fn stream_events(config: EngineConfig, data: &[u8]) -> (Vec<WireEvent>, CompressionStats) {
    let engine = CompressionEngine::new(config).unwrap();
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
        PipelinedStream::with_control_sink(engine, BATCH_CHUNKS, sink, Some(control_sink)).unwrap();
    stream.push_record(data).unwrap();
    let (engine, _) = stream.finish().unwrap();
    (events.into_inner(), engine.stats())
}

/// Feeds the same event to decoder and reference and holds every outcome —
/// result, appended bytes, statistics — to equality.
fn step(
    context: &str,
    dec: &mut EngineDecompressor,
    reference: &mut Reference,
    out: &mut Vec<u8>,
    expected: &mut Vec<u8>,
    event: impl Fn(&mut EngineDecompressor, &mut Vec<u8>) -> Result<()>,
    reference_event: impl Fn(&mut Reference, &mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    let got = event(dec, out);
    let want = reference_event(reference, expected);
    assert_eq!(got, want, "{context}: outcome");
    assert_eq!(out.len(), expected.len(), "{context}: restored length");
    assert_eq!(dec.stats(), &reference.stats, "{context}: statistics");
    got
}

// ---------------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------------

#[test]
fn payload_api_matches_the_reference_with_updates_applied_observed_and_absent() {
    for (label, config) in configs() {
        for (name, data) in streams(&config.gd) {
            let context = format!("{label} / {name}");
            let (events, compressor) = stream_events(config, &data);
            if matches!(name, "churn" | "pool") {
                assert!(
                    compressor.evictions >= 2 * config.gd.dictionary_capacity() as u64,
                    "{context}: only {} evictions — identifiers must recycle",
                    compressor.evictions
                );
            }
            assert!(compressor.emitted_compressed > 0, "{context}: no hits");

            // Updates applied ahead of their payloads, and absent.
            for apply in [true, false] {
                let context = format!("{context} / updates applied: {apply}");
                let mut dec = EngineDecompressor::new(config).unwrap();
                let mut reference = Reference::new(&config);
                let (mut out, mut expected) = (Vec::new(), Vec::new());
                for event in &events {
                    match event {
                        WireEvent::Update(update) if apply => {
                            dec.backend_mut().apply_update(update).unwrap();
                            reference.apply_update(update).unwrap();
                        }
                        WireEvent::Update(_) => {}
                        WireEvent::Payload(pt, bytes) => step(
                            &context,
                            &mut dec,
                            &mut reference,
                            &mut out,
                            &mut expected,
                            |dec, out| dec.restore_payload_into(*pt, bytes, out),
                            |reference, out| reference.payload(*pt, bytes, out),
                        )
                        .unwrap(),
                    }
                }
                assert_eq!(out, expected, "{context}: restored bytes");
                assert_eq!(out, data, "{context}: lossless");
            }

            // Updates observed only: the flow pool checks their order and
            // learns in-band.
            let key = FlowKey::new(7, 3);
            let mut pool = FlowDecoderPool::new(config);
            pool.open(key).unwrap();
            let mut reference = Reference::new(&config);
            let (mut out, mut expected) = (Vec::new(), Vec::new());
            for event in &events {
                match event {
                    WireEvent::Update(update) => pool.observe_control(key, update).unwrap(),
                    WireEvent::Payload(pt, bytes) => {
                        pool.decode_payload(key, None, *pt, bytes, &mut out)
                            .unwrap();
                        reference.payload(*pt, bytes, &mut expected).unwrap();
                    }
                }
            }
            assert_eq!(out, expected, "{context} / pool: restored bytes");
            assert_eq!(
                pool.close(key).unwrap(),
                reference.stats,
                "{context} / pool: statistics"
            );
        }
    }
}

#[test]
fn record_api_matches_the_reference() {
    for (label, config) in configs() {
        for (name, data) in streams(&config.gd) {
            let context = format!("{label} / {name}");
            let mut engine = CompressionEngine::new(config).unwrap();
            let batches: Vec<CompressedStream> = data
                .chunks(BATCH_CHUNKS * config.gd.chunk_bytes)
                .map(|batch| engine.compress_batch(batch).unwrap())
                .collect();

            // Record by record…
            let mut dec = EngineDecompressor::new(config).unwrap();
            let mut reference = Reference::new(&config);
            let (mut out, mut expected) = (Vec::new(), Vec::new());
            for record in batches.iter().flat_map(|batch| &batch.records) {
                step(
                    &context,
                    &mut dec,
                    &mut reference,
                    &mut out,
                    &mut expected,
                    |dec, out| dec.decompress_record_into(record, out),
                    |reference, out| reference.record(record, out),
                )
                .unwrap();
            }
            assert_eq!(out, expected, "{context}: restored bytes");
            assert_eq!(out, data, "{context}: lossless");

            // …and batch by batch.
            let mut dec = EngineDecompressor::new(config).unwrap();
            let mut out = Vec::new();
            for batch in &batches {
                out.extend_from_slice(&dec.decompress_batch(batch).unwrap());
            }
            assert_eq!(out, expected, "{context}: decompress_batch bytes");
            assert_eq!(
                dec.stats(),
                &reference.stats,
                "{context}: decompress_batch statistics"
            );
        }
    }
}

/// What `GdDecompressor` was before it cached restored chunks.
struct PlainReference {
    codec: ChunkCodec,
    dictionary: BasisDictionary,
    scratch: DecodeScratch,
    clock: u64,
    stats: CompressionStats,
}

impl PlainReference {
    fn new(gd: &GdConfig, dictionary: BasisDictionary) -> Self {
        Self {
            codec: ChunkCodec::new(gd).unwrap(),
            dictionary,
            scratch: DecodeScratch::new(),
            clock: 0,
            stats: CompressionStats::new(),
        }
    }

    fn record(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<()> {
        self.clock += 1;
        match record {
            Record::NewBasis {
                extra,
                deviation,
                basis,
            } => {
                self.dictionary.insert(basis.clone(), self.clock)?;
                self.codec
                    .decode_parts_into(extra, *deviation, basis, &mut self.scratch, out)?;
            }
            Record::Ref {
                extra,
                deviation,
                id,
            } => {
                let Some(basis) = self.dictionary.lookup_id_ref(*id, self.clock, true) else {
                    self.stats.decode_failures += 1;
                    return Err(GdError::UnknownIdentifier(*id));
                };
                self.codec
                    .decode_parts_into(extra, *deviation, basis, &mut self.scratch, out)?;
            }
            Record::RawTail { bytes } => out.extend_from_slice(bytes),
        }
        self.stats.chunks_decoded += 1;
        Ok(())
    }
}

#[test]
fn gd_decompressor_matches_the_reference_with_fresh_and_static_dictionaries() {
    for (label, config) in configs() {
        let gd = config.gd;
        for (name, data) in streams(&gd) {
            let context = format!("{label} / {name}");

            // Fresh dictionaries on both sides.
            let mut compressor = GdCompressor::new(&gd).unwrap();
            let stream = compressor.compress_batch(&data).unwrap();
            let mut dec = GdDecompressor::new(&gd).unwrap();
            let mut reference =
                PlainReference::new(&gd, BasisDictionary::new(gd.dictionary_capacity()));
            let mut expected = Vec::new();
            for record in &stream.records {
                reference.record(record, &mut expected).unwrap();
            }
            assert_eq!(
                dec.decompress_batch(&stream).unwrap(),
                expected,
                "{context}"
            );
            assert_eq!(dec.stats(), &reference.stats, "{context}: statistics");
            assert_eq!(expected, data, "{context}: lossless");

            // A static table: the dictionary the first pass ended with, whose
            // identifiers the decoder has never seen assigned.
            let table = compressor.dictionary().clone();
            let again = GdCompressor::with_dictionary(&gd, table.clone())
                .unwrap()
                .compress_batch(&data)
                .unwrap();
            let mut dec = GdDecompressor::with_dictionary(&gd, table.clone()).unwrap();
            let mut reference = PlainReference::new(&gd, table);
            let (mut out, mut expected) = (Vec::new(), Vec::new());
            for record in &again.records {
                let got = dec.decompress_record_into(record, &mut out);
                assert_eq!(got, reference.record(record, &mut expected), "{context}");
            }
            assert_eq!(out, expected, "{context}: static table bytes");
            assert_eq!(out, data, "{context}: static table lossless");
            assert_eq!(
                dec.stats(),
                &reference.stats,
                "{context}: static statistics"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

/// A decoder and its reference over `config`, fed the same events through
/// [`step`].
struct Pair {
    dec: EngineDecompressor,
    reference: Reference,
    out: Vec<u8>,
    expected: Vec<u8>,
}

impl Pair {
    fn new(config: EngineConfig) -> Self {
        Self {
            dec: EngineDecompressor::new(config).unwrap(),
            reference: Reference::new(&config),
            out: Vec::new(),
            expected: Vec::new(),
        }
    }

    fn payload(&mut self, context: &str, pt: PacketType, bytes: &[u8]) -> Result<()> {
        step(
            context,
            &mut self.dec,
            &mut self.reference,
            &mut self.out,
            &mut self.expected,
            |dec, out| dec.restore_payload_into(pt, bytes, out),
            |reference, out| reference.payload(pt, bytes, out),
        )
    }

    fn record(&mut self, context: &str, record: &Record) -> Result<()> {
        step(
            context,
            &mut self.dec,
            &mut self.reference,
            &mut self.out,
            &mut self.expected,
            |dec, out| dec.decompress_record_into(record, out),
            |reference, out| reference.record(record, out),
        )
    }

    fn update(&mut self, update: &DictionaryUpdate) {
        let got = self.dec.backend_mut().apply_update(update);
        assert_eq!(got, self.reference.apply_update(update));
        got.unwrap();
    }

    /// Restored bytes so far agree with the reference.
    fn assert_same_bytes(&self, context: &str) {
        assert_eq!(self.out, self.expected, "{context}");
    }
}

fn wire(gd: &GdConfig, payload: &ZipLinePayload) -> Vec<u8> {
    payload.encode(gd).unwrap()
}

/// `len` bits that are a function of `seed`.
fn seeded_bits(len: usize, seed: u64) -> BitVec {
    let mut rng = XorShift(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
    let mut bits = BitVec::new();
    let mut left = len;
    while left > 0 {
        let take = left.min(64);
        bits.push_bits(rng.next() >> (64 - take), take);
        left -= take;
    }
    bits
}

fn basis(gd: &GdConfig, seed: u64) -> BitVec {
    seeded_bits(gd.k(), seed)
}

fn carried(gd: &GdConfig, seed: u64) -> BitVec {
    seeded_bits(gd.extra_bits(), !seed)
}

#[test]
fn hostile_identifiers_are_typed_errors_and_leave_no_bytes() {
    for (label, config) in configs() {
        let gd = config.gd;
        let mut pair = Pair::new(config);
        let type3 = |id: u64, seed: u64| {
            wire(
                &gd,
                &ZipLinePayload::Compressed {
                    deviation: seed % (gd.n() as u64 + 1),
                    extra: carried(&gd, seed),
                    id,
                },
            )
        };

        // In range, never assigned.
        let err = pair
            .payload(label, PacketType::Compressed, &type3(1, 11))
            .unwrap_err();
        assert_eq!(err, GdError::UnknownIdentifier(1), "{label}");
        assert!(pair.out.is_empty(), "{label}: bytes after an unknown id");
        assert_eq!(pair.dec.stats().decode_failures, 1, "{label}");

        // Assigned, referenced (so its chunk is cached), then retired: the
        // dictionary answers before the cache.
        let install = DictionaryUpdate {
            seq: 0,
            at: 0,
            op: UpdateOp::Install {
                id: 0,
                basis: basis(&gd, 1),
            },
        };
        pair.update(&install);
        pair.payload(label, PacketType::Compressed, &type3(0, 12))
            .unwrap();
        pair.payload(label, PacketType::Compressed, &type3(0, 13))
            .unwrap();
        let restored = pair.out.len();
        assert_eq!(restored, 2 * gd.chunk_bytes, "{label}");
        pair.update(&DictionaryUpdate {
            seq: 1,
            at: 0,
            op: UpdateOp::Remove { id: 0 },
        });
        let err = pair
            .payload(label, PacketType::Compressed, &type3(0, 14))
            .unwrap_err();
        assert_eq!(err, GdError::UnknownIdentifier(0), "{label}");
        assert_eq!(pair.out.len(), restored, "{label}: stale chunk emitted");

        // Reinstalled under another basis: the new basis, not the cached one.
        pair.update(&DictionaryUpdate {
            seq: 2,
            at: 0,
            op: UpdateOp::Install {
                id: 0,
                basis: basis(&gd, 2),
            },
        });
        pair.payload(label, PacketType::Compressed, &type3(0, 15))
            .unwrap();
        // Replaced in place while live.
        pair.update(&DictionaryUpdate {
            seq: 3,
            at: 0,
            op: UpdateOp::Install {
                id: 0,
                basis: basis(&gd, 3),
            },
        });
        pair.payload(label, PacketType::Compressed, &type3(0, 16))
            .unwrap();
        pair.assert_same_bytes(label);

        // Beyond every shard (only the record API can name such an id).
        for id in [gd.dictionary_capacity() as u64, u64::MAX] {
            let err = pair
                .record(
                    label,
                    &Record::Ref {
                        extra: carried(&gd, 17),
                        deviation: 0,
                        id,
                    },
                )
                .unwrap_err();
            assert_eq!(err, GdError::UnknownIdentifier(id), "{label}");
        }
        pair.assert_same_bytes(label);
    }
}

#[test]
fn a_recycled_identifier_restores_the_new_basis() {
    for (label, config) in configs() {
        let gd = config.gd;
        let mut pair = Pair::new(config);
        // In-band only: three times as many bases as identifiers, each
        // referenced right after it is learned and again once more bases
        // have pushed recency around. The reference says which references
        // still resolve; what resolves must restore the current basis.
        let capacity = gd.dictionary_capacity() as u64;
        let mut hits = 0;
        for seed in 0..3 * capacity {
            let new = ZipLinePayload::Uncompressed {
                deviation: seed % (gd.n() as u64 + 1),
                extra: carried(&gd, seed),
                basis: basis(&gd, 100 + seed),
            };
            pair.payload(label, PacketType::Uncompressed, &wire(&gd, &new))
                .unwrap();
            for id in [seed % capacity, (seed * 7 + 3) % capacity] {
                let reference = ZipLinePayload::Compressed {
                    deviation: (seed * 5 + id) % (gd.n() as u64 + 1),
                    extra: carried(&gd, seed ^ id),
                    id,
                };
                let outcome = pair.payload(label, PacketType::Compressed, &wire(&gd, &reference));
                hits += u64::from(outcome.is_ok());
            }
        }
        assert!(hits > capacity, "{label}: only {hits} references resolved");
        pair.assert_same_bytes(label);
    }
}

#[test]
fn malformed_payloads_and_records_are_typed_errors() {
    for (label, config) in configs() {
        let gd = config.gd;
        let n = gd.n() as u64;
        let mut pair = Pair::new(config);

        // One byte short, both processed types: nothing learned, no bytes.
        let type2 = wire(
            &gd,
            &ZipLinePayload::Uncompressed {
                deviation: 1,
                extra: carried(&gd, 1),
                basis: basis(&gd, 1),
            },
        );
        let type3 = wire(
            &gd,
            &ZipLinePayload::Compressed {
                deviation: 1,
                extra: carried(&gd, 1),
                id: 0,
            },
        );
        for (pt, bytes) in [
            (PacketType::Uncompressed, &type2),
            (PacketType::Compressed, &type3),
        ] {
            let err = pair
                .payload(label, pt, &bytes[..bytes.len() - 1])
                .unwrap_err();
            assert!(matches!(err, GdError::Malformed(_)), "{label}: {err:?}");
        }
        assert!(pair.out.is_empty(), "{label}");
        assert!(pair.dec.dictionary().is_empty(), "{label}");

        // The whole type 2 payload decodes, a reference to what it taught
        // does, and a raw payload passes through.
        pair.payload(label, PacketType::Uncompressed, &type2)
            .unwrap();
        let learned = pair.dec.dictionary().snapshot().entries[0].0;
        let type3 = wire(
            &gd,
            &ZipLinePayload::Compressed {
                deviation: 1,
                extra: carried(&gd, 1),
                id: learned,
            },
        );
        pair.payload(label, PacketType::Compressed, &type3).unwrap();
        pair.payload(label, PacketType::Raw, b"raw bytes").unwrap();

        // deviation = n + 1 (the record API only: the wire field is m bits),
        // after the dictionary step on both record kinds.
        let err = pair
            .record(
                label,
                &Record::Ref {
                    extra: carried(&gd, 2),
                    deviation: n + 1,
                    id: learned,
                },
            )
            .unwrap_err();
        assert!(matches!(err, GdError::Malformed(_)), "{label}: {err:?}");
        let err = pair
            .record(
                label,
                &Record::NewBasis {
                    extra: carried(&gd, 3),
                    deviation: n + 1,
                    basis: basis(&gd, 2),
                },
            )
            .unwrap_err();
        assert!(matches!(err, GdError::Malformed(_)), "{label}: {err:?}");
        assert_eq!(pair.dec.dictionary().len(), 2, "{label}: learned first");

        // Wrong-length record fields: carried bits, then a basis — which the
        // dictionary holds from then on, so references to it keep failing
        // the same way instead of restoring anything.
        let mut long = carried(&gd, 4);
        long.push(true);
        for record in [
            Record::Ref {
                extra: long.clone(),
                deviation: 0,
                id: learned,
            },
            Record::NewBasis {
                extra: long,
                deviation: 0,
                basis: basis(&gd, 3),
            },
        ] {
            let err = pair.record(label, &record).unwrap_err();
            assert!(
                matches!(err, GdError::LengthMismatch { .. }),
                "{label}: {err:?}"
            );
        }
        let mut short = basis(&gd, 4);
        short.truncate(gd.k() - 1);
        let err = pair
            .record(
                label,
                &Record::NewBasis {
                    extra: carried(&gd, 5),
                    deviation: 0,
                    basis: short,
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, GdError::LengthMismatch { .. }),
            "{label}: {err:?}"
        );
        let held = pair
            .dec
            .dictionary()
            .snapshot()
            .entries
            .iter()
            .find(|(_, held)| held.len() == gd.k() - 1)
            .map(|(id, _)| *id)
            .expect("the short basis was learned before it failed to decode");
        for _ in 0..2 {
            let err = pair
                .record(
                    label,
                    &Record::Ref {
                        extra: carried(&gd, 6),
                        deviation: 0,
                        id: held,
                    },
                )
                .unwrap_err();
            assert!(
                matches!(err, GdError::LengthMismatch { .. }),
                "{label}: {err:?}"
            );
        }
        pair.assert_same_bytes(label);
    }
}
