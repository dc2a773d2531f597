//! Failure-injection tests: the deployment must stay lossless (or fail
//! loudly) when the control plane misbehaves, queues overflow, or traffic is
//! corrupted — situations the paper's two-phase install protocol is designed
//! to survive.

use std::any::Any;
use zipline_repro::zipline::control::{ControlMessage, ETHERTYPE_ZIPLINE_CONTROL};
use zipline_repro::zipline::decoder::{DecoderConfig, UnknownIdPolicy, ZipLineDecodeProgram};
use zipline_repro::zipline::encoder::{EncoderConfig, ZipLineEncodeProgram};
use zipline_repro::zipline_gd::packet::ETHERTYPE_ZIPLINE_COMPRESSED;
use zipline_repro::zipline_net::ethernet::ETHERTYPE_IPV4;
use zipline_repro::zipline_net::host::{CaptureSink, GeneratorConfig, TrafficGenerator};
use zipline_repro::zipline_net::link::LinkParams;
use zipline_repro::zipline_net::sim::{Network, Node, NodeCtx, PortId};
use zipline_repro::zipline_net::time::{DataRate, SimDuration, SimTime};
use zipline_repro::zipline_net::{EthernetFrame, MacAddress};
use zipline_repro::zipline_switch::node::{SwitchConfig, SwitchNode};

/// A node that sits on the control channel and drops every Nth control frame
/// (or all of them), otherwise forwarding between its two ports.
struct LossyControlChannel {
    drop_every: u64,
    seen: u64,
    dropped: u64,
}

impl LossyControlChannel {
    fn new(drop_every: u64) -> Self {
        Self {
            drop_every,
            seen: 0,
            dropped: 0,
        }
    }
}

impl Node for LossyControlChannel {
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, frame: EthernetFrame) {
        self.seen += 1;
        if self.drop_every > 0 && self.seen.is_multiple_of(self.drop_every) {
            self.dropped += 1;
            return;
        }
        // Two-port wire: 0 <-> 1.
        ctx.send(1 - port, frame);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Builds the usual sender → encoder → decoder → receiver chain but routes
/// the control channel through a lossy middlebox.
fn run_with_lossy_control(drop_every: u64, packets: u64) -> (u64, u64, u64, u64) {
    let mut net = Network::new();
    let payload = vec![0x42u8; 32];
    let frame = EthernetFrame::new(
        MacAddress::local(2),
        MacAddress::local(1),
        ETHERTYPE_IPV4,
        payload,
    );
    let sender = net.add_node(Box::new(TrafficGenerator::new(GeneratorConfig {
        frames: vec![frame],
        count: packets,
        nic_rate: DataRate::LINE_RATE_100G,
        max_packets_per_second: Some(100_000.0),
        port: 0,
        start: SimTime::ZERO,
    })));

    let switch_config = SwitchConfig {
        ports: 3,
        pipeline_latency: SimDuration::from_nanos(100),
        control_plane_latency: SimDuration::from_micros(10),
        cpu_ports: vec![2],
        digest_queue_capacity: 64,
    };
    let encoder = ZipLineEncodeProgram::new(EncoderConfig::paper_default()).unwrap();
    let encoder_switch = net.add_node(Box::new(
        SwitchNode::new(switch_config.clone(), encoder).unwrap(),
    ));
    let decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
    let decoder_switch = net.add_node(Box::new(SwitchNode::new(switch_config, decoder).unwrap()));
    let receiver = net.add_node(Box::new(CaptureSink::counting()));
    let lossy = net.add_node(Box::new(LossyControlChannel::new(drop_every)));

    net.connect((sender, 0), (encoder_switch, 0), LinkParams::ideal())
        .unwrap();
    net.connect(
        (encoder_switch, 1),
        (decoder_switch, 0),
        LinkParams::ideal(),
    )
    .unwrap();
    net.connect((decoder_switch, 1), (receiver, 0), LinkParams::ideal())
        .unwrap();
    // Control channel through the lossy middlebox.
    net.connect((encoder_switch, 2), (lossy, 0), LinkParams::ideal())
        .unwrap();
    net.connect((lossy, 1), (decoder_switch, 2), LinkParams::ideal())
        .unwrap();

    net.schedule_timer(SimTime::ZERO, sender, 0);
    net.run(packets * 20 + 10_000);

    let received = net
        .node_as::<CaptureSink>(receiver)
        .unwrap()
        .stats()
        .frames_received;
    let encoder_node = net
        .node_as::<SwitchNode<ZipLineEncodeProgram>>(encoder_switch)
        .unwrap();
    let decoder_node = net
        .node_as::<SwitchNode<ZipLineDecodeProgram>>(decoder_switch)
        .unwrap();
    let compressed = encoder_node.program().stats().emitted_compressed;
    let failures = decoder_node.program().stats().decode_failures;
    let dropped_control = net.node_as::<LossyControlChannel>(lossy).unwrap().dropped;
    (received, compressed, failures, dropped_control)
}

#[test]
fn control_channel_loss_delays_but_never_corrupts() {
    // Dropping every second control frame delays activation (install or ack
    // may be lost) but the two-phase protocol guarantees that whatever *is*
    // compressed can be decompressed: zero decode failures, every packet
    // delivered.
    let (received, compressed, failures, dropped) = run_with_lossy_control(2, 500);
    assert_eq!(received, 500);
    assert_eq!(failures, 0, "a compressed packet must never be undecodable");
    assert!(dropped > 0, "the middlebox did drop control traffic");
    // Depending on which frame was dropped (install vs ack) compression may
    // or may not have become active; either is acceptable, corruption is not.
    let _ = compressed;
}

#[test]
fn total_control_channel_loss_disables_compression_but_not_delivery() {
    let (received, compressed, failures, dropped) = run_with_lossy_control(1, 300);
    assert_eq!(received, 300);
    assert_eq!(
        compressed, 0,
        "without acks the encoder must never compress"
    );
    assert_eq!(failures, 0);
    assert!(dropped > 0);
}

#[test]
fn digest_queue_overflow_is_counted_and_harmless() {
    // A burst of distinct bases larger than the digest queue: some digests
    // are dropped (as on the real ASIC), those bases simply stay
    // uncompressed until a later packet's digest gets through.
    let mut net = Network::new();
    let frames: Vec<EthernetFrame> = (0..200u32)
        .map(|i| {
            let mut payload = vec![0u8; 32];
            payload[0..4].copy_from_slice(&i.to_be_bytes());
            EthernetFrame::new(
                MacAddress::local(2),
                MacAddress::local(1),
                ETHERTYPE_IPV4,
                payload,
            )
        })
        .collect();
    let sender = net.add_node(Box::new(TrafficGenerator::new(GeneratorConfig {
        count: frames.len() as u64,
        frames,
        nic_rate: DataRate::LINE_RATE_100G,
        max_packets_per_second: None, // burst as fast as possible
        port: 0,
        start: SimTime::ZERO,
    })));
    let switch_config = SwitchConfig {
        ports: 3,
        pipeline_latency: SimDuration::from_nanos(100),
        control_plane_latency: SimDuration::from_millis(1),
        cpu_ports: vec![2],
        digest_queue_capacity: 16,
    };
    let encoder = ZipLineEncodeProgram::new(EncoderConfig::paper_default()).unwrap();
    let encoder_switch = net.add_node(Box::new(SwitchNode::new(switch_config, encoder).unwrap()));
    let receiver = net.add_node(Box::new(CaptureSink::counting()));
    net.connect((sender, 0), (encoder_switch, 0), LinkParams::ideal())
        .unwrap();
    net.connect((encoder_switch, 1), (receiver, 0), LinkParams::ideal())
        .unwrap();
    net.schedule_timer(SimTime::ZERO, sender, 0);
    net.run(50_000);

    let node = net
        .node_as::<SwitchNode<ZipLineEncodeProgram>>(encoder_switch)
        .unwrap();
    assert!(
        node.stats().digests_dropped > 0,
        "the 16-entry queue must overflow"
    );
    assert_eq!(
        net.node_as::<CaptureSink>(receiver)
            .unwrap()
            .stats()
            .frames_received,
        200,
        "every packet is still forwarded"
    );
}

#[test]
fn decoder_drop_policy_discards_undecodable_packets() {
    // With the Drop policy, a compressed packet with an unknown identifier is
    // dropped rather than forwarded in undecodable form.
    let mut decoder = ZipLineDecodeProgram::new(DecoderConfig {
        unknown_id_policy: UnknownIdPolicy::Drop,
        ..DecoderConfig::paper_default()
    })
    .unwrap();
    let frame = EthernetFrame::new(
        MacAddress::local(2),
        MacAddress::local(1),
        ETHERTYPE_ZIPLINE_COMPRESSED,
        vec![0x00, 0x00, 0x09],
    );
    let mut ctx = zipline_repro::zipline_switch::packet_ctx::PacketContext::new(0, frame);
    use zipline_repro::zipline_switch::program::PipelineProgram;
    decoder.ingress(&mut ctx, SimTime::ZERO);
    assert!(ctx.dropped);
    assert_eq!(decoder.stats().decode_failures, 1);
}

#[test]
fn malformed_control_frames_are_ignored_by_both_sides() {
    use zipline_repro::zipline_switch::program::PipelineProgram;
    let mut encoder = ZipLineEncodeProgram::new(EncoderConfig::paper_default()).unwrap();
    let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
    for payload in [vec![], vec![0xFF], vec![1, 2], vec![9; 64]] {
        let frame = EthernetFrame::new(
            MacAddress::local(1),
            MacAddress::local(2),
            ETHERTYPE_ZIPLINE_CONTROL,
            payload,
        );
        assert!(encoder
            .handle_control_packet(frame.clone(), SimTime::ZERO)
            .is_empty());
        assert!(decoder
            .handle_control_packet(frame, SimTime::ZERO)
            .is_empty());
    }
}

// ---------------------------------------------------------------------------
// Durable engine store: recovery fault injection (ISSUE 6)
// ---------------------------------------------------------------------------
//
// The recovery property under attack here: whatever we do to the on-disk
// logs — truncate them at an arbitrary byte, flip a bit, starve the
// checkpoint cadence, kill the writer between the commit marker and the
// frame emission — `EngineStore::open` must either recover a journal that
// is a *strict prefix* of the reference recovery (bit for bit) or fail
// loudly with a typed error. Silent misrestoration is the only losing
// outcome.

mod recovery_injection {
    use std::cell::RefCell;
    use std::path::{Path, PathBuf};

    use zipline_repro::zipline_engine::{
        Batch, BatchEvent, CommittedEntry, CompressionBackend, CompressionEngine, DictionaryUpdate,
        EngineBuilder, EngineStore, GdBackend, PipelinedStream, ShardedDictionary, SpawnPolicy,
        WarmStart,
    };
    use zipline_repro::zipline_gd::config::GdConfig;
    use zipline_repro::zipline_gd::packet::PacketType;
    use zipline_repro::zipline_gd::BitVec;
    use zipline_repro::zipline_traces::{ChurnWorkload, ChurnWorkloadConfig};

    const FRAME_LOG: &str = "frames.zfl";
    const SHARD_LOG: &str = "shards.zsl";

    fn recovery_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "zipline-recovery-inject-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn builder(dir: &Path, cadence: u64) -> EngineBuilder {
        EngineBuilder::new()
            .gd(GdConfig::for_parameters(8, 4).unwrap())
            .shards(2)
            .workers(1)
            .spawn(SpawnPolicy::Inline)
            .durable(dir.to_path_buf())
            .checkpoint_cadence(cadence)
    }

    /// A churny input sized to the 16-identifier dictionary above: twice
    /// as many distinct bases as identifiers, each repeated twice.
    fn churny_data() -> Vec<u8> {
        ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(16, 2, 32)).bytes()
    }

    /// Seeds `dir` by committing every whole 8-chunk batch of `data` by
    /// hand, with a checkpoint whenever the cadence is due, and killing the
    /// writer without compaction — both logs keep their full journals.
    /// Returns the wire events the doomed writer committed.
    fn seed_store(dir: &Path, cadence: u64, data: &[u8]) -> Vec<CommittedEntry> {
        let mut engine: CompressionEngine<GdBackend> = builder(dir, cadence).build().unwrap();
        let mut store = engine.take_store().expect("durable engine");
        let mut events = Vec::new();
        let mut staged = Batch::default();
        for input in data.chunks_exact(8 * 32) {
            let compressed = engine.compress_batch(input).unwrap();
            staged.clear();
            engine
                .backend_mut()
                .emit_batch(compressed, &mut |pt, bytes| staged.push_payload(pt, bytes))
                .unwrap();
            staged.place_updates(engine.take_delta().updates);
            let state = store
                .checkpoint_due()
                .then(|| engine.backend().export_dictionary_state())
                .flatten();
            store
                .commit_batch(&staged, state.as_ref(), input.len() as u64)
                .unwrap();
            events.extend(staged.events().map(|event| match event {
                BatchEvent::Update(update) => CommittedEntry::Control(update.clone()),
                BatchEvent::Payload(packet_type, bytes) => CommittedEntry::Frame {
                    packet_type,
                    codec: None,
                    bytes: bytes.to_vec(),
                },
            }));
        }
        events
    }

    /// Feeds `data` through an 8-chunk-batch stream to completion,
    /// collecting the sinks' events in [`CommittedEntry`] shape.
    fn run_stream(engine: CompressionEngine<GdBackend>, data: &[u8]) -> Vec<CommittedEntry> {
        let events: RefCell<Vec<CommittedEntry>> = RefCell::new(Vec::new());
        let sink = |pt: PacketType, bytes: &[u8]| {
            events.borrow_mut().push(CommittedEntry::Frame {
                packet_type: pt,
                codec: None,
                bytes: bytes.to_vec(),
            });
        };
        let control_sink = Some(|update: &DictionaryUpdate| {
            events
                .borrow_mut()
                .push(CommittedEntry::Control(update.clone()));
        });
        let mut stream = PipelinedStream::with_control_sink(engine, 8, sink, control_sink).unwrap();
        stream.push_record(data).unwrap();
        stream.finish().unwrap();
        events.into_inner()
    }

    fn clone_store(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for name in [FRAME_LOG, SHARD_LOG] {
            std::fs::copy(src.join(name), dst.join(name)).unwrap();
        }
    }

    /// The reference recovery of the untampered store. The scratch copy is
    /// named after `dir`, so tests running in parallel never share one.
    fn reference_warm(dir: &Path) -> WarmStart {
        let seed_name = dir.file_name().expect("seed directories are named");
        let scratch = dir.with_file_name(format!("{}-reference", seed_name.to_string_lossy()));
        let _ = std::fs::remove_dir_all(&scratch);
        clone_store(dir, &scratch);
        let (_, warm) = EngineStore::open(&scratch).unwrap();
        let warm = warm.expect("seed committed batches");
        let _ = std::fs::remove_dir_all(&scratch);
        warm
    }

    /// Asserts the fate of one tampered store: recovery yields a strict
    /// prefix of the reference journal, or a loud typed error. Returns
    /// whether it recovered (and with how many batches) for sweep stats.
    fn assert_prefix_or_loud(work: &Path, reference: &WarmStart) -> Option<u64> {
        match EngineStore::open(work) {
            Ok((_, warm)) => {
                let Some(warm) = warm else { return Some(0) };
                assert!(warm.batches <= reference.batches);
                assert!(warm.bytes_in <= reference.bytes_in);
                assert!(
                    warm.committed.len() <= reference.committed.len()
                        && warm.committed[..] == reference.committed[..warm.committed.len()],
                    "recovered journal must be a strict prefix of the reference"
                );
                Some(warm.batches)
            }
            // PersistError is typed and descriptive; any Err is "loud".
            Err(_) => None,
        }
    }

    /// `(kind, end offset)` of every record of a log, read off the length
    /// prefixes alone (`len:u32le · kind · body · crc:u32le`).
    fn record_ends(log: &[u8]) -> Vec<(u8, usize)> {
        let mut ends = Vec::new();
        let mut at = 0;
        while at < log.len() {
            let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
            ends.push((log[at + 4], at + 4 + len + 4));
            at += 4 + len + 4;
        }
        assert_eq!(at, log.len(), "the seed's log ends on a record boundary");
        ends
    }

    /// Kill the writer at *every byte offset* of the frame log: recovery
    /// must land on the last commit boundary the surviving bytes cover. A
    /// batch is one record followed by its commit marker, so a cut anywhere
    /// inside either truncates to the commit before them.
    #[test]
    fn frame_log_truncated_at_every_offset_recovers_a_prefix_or_fails_loudly() {
        const KIND_COMMIT: u8 = 0x14;
        const KIND_BATCH: u8 = 0x16;
        let dir = recovery_dir("trunc-frame-seed");
        seed_store(&dir, 1, &churny_data());
        let reference = reference_warm(&dir);
        assert!(reference.batches >= 4, "seed must commit several batches");

        let frame_bytes = std::fs::read(dir.join(FRAME_LOG)).unwrap();
        let records = record_ends(&frame_bytes);
        let kinds: Vec<u8> = records.iter().map(|(kind, _)| *kind).collect();
        assert!(
            kinds[1..]
                .chunks(2)
                .all(|pair| pair == [KIND_BATCH, KIND_COMMIT]),
            "header, then one batch record and one commit marker per batch: {kinds:02x?}"
        );
        // The last batch is the interrupted one as far as any cut past the
        // commit before it is concerned.
        let last_commit_but_one = records[records.len() - 3].1;

        let work = recovery_dir("trunc-frame-work");
        let mut boundaries = Vec::new();
        for cut in 0..=frame_bytes.len() {
            clone_store(&dir, &work);
            std::fs::write(work.join(FRAME_LOG), &frame_bytes[..cut]).unwrap();
            let commits_covered = records
                .iter()
                .filter(|(kind, end)| *kind == KIND_COMMIT && *end <= cut)
                .count() as u64;
            match assert_prefix_or_loud(&work, &reference) {
                Some(batches) => {
                    assert_eq!(batches, commits_covered, "cut {cut}");
                    boundaries.push(batches);
                }
                None => assert!(
                    cut < last_commit_but_one,
                    "cut {cut} tore only the last batch and must recover"
                ),
            }
        }
        // The sweep must see recovery at more than one boundary (early cuts
        // recover fewer batches, the full file recovers all of them) and
        // the boundary can only grow as more bytes survive.
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(boundaries.last(), Some(&reference.batches));
        assert!(boundaries.first().unwrap() < &reference.batches);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&work);
    }

    /// The same sweep over the shard log. Most cuts leave the frame log
    /// claiming commits the shard log can no longer cover — that must be a
    /// loud corruption error, never a silently emptier dictionary.
    #[test]
    fn shard_log_truncated_at_every_offset_recovers_or_fails_loudly() {
        let dir = recovery_dir("trunc-shard-seed");
        seed_store(&dir, 1, &churny_data());
        let reference = reference_warm(&dir);

        let shard_bytes = std::fs::read(dir.join(SHARD_LOG)).unwrap();
        let work = recovery_dir("trunc-shard-work");
        let (mut recovered, mut loud) = (0usize, 0usize);
        // Step by a prime: record sizes vary, so every field class is hit
        // without paying for a full per-byte sweep of the (large) log.
        for cut in (0..=shard_bytes.len()).step_by(3) {
            clone_store(&dir, &work);
            std::fs::write(work.join(SHARD_LOG), &shard_bytes[..cut]).unwrap();
            match assert_prefix_or_loud(&work, &reference) {
                Some(batches) => {
                    recovered += 1;
                    // The frame log is intact, so a successful recovery
                    // must reach the full commit boundary.
                    assert_eq!(batches, reference.batches);
                }
                None => loud += 1,
            }
        }
        assert!(recovered > 0, "a torn trailing checkpoint must still fold");
        assert!(loud > 0, "uncoverable commits must fail loudly");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&work);
    }

    /// Single-bit corruption anywhere in either log: CRC framing turns it
    /// into a shorter valid prefix or a loud error — never silent damage.
    #[test]
    fn flipped_bits_never_misrestore_silently() {
        let dir = recovery_dir("bitflip-seed");
        seed_store(&dir, 1, &churny_data());
        let reference = reference_warm(&dir);
        let work = recovery_dir("bitflip-work");
        for log in [FRAME_LOG, SHARD_LOG] {
            let bytes = std::fs::read(dir.join(log)).unwrap();
            // Step by a prime so the sweep hits every record field class.
            for pos in (0..bytes.len()).step_by(13) {
                for mask in [0x01u8, 0x80] {
                    let mut tampered = bytes.clone();
                    tampered[pos] ^= mask;
                    clone_store(&dir, &work);
                    std::fs::write(work.join(log), &tampered).unwrap();
                    assert_prefix_or_loud(&work, &reference);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&work);
    }

    /// A sparse checkpoint cadence leaves the tail of the log covered only
    /// by deltas: recovery folds them onto the stale checkpoint and the
    /// resumed stream is still bit-identical to the uninterrupted run.
    #[test]
    fn stale_checkpoint_with_newer_deltas_folds_and_resumes_bit_identically() {
        let data = churny_data();
        let batch_bytes = 8 * 32;
        let cut = 6 * batch_bytes; // kill after 6 whole batches
        assert!(cut < data.len());

        let plain: CompressionEngine<GdBackend> = EngineBuilder::new()
            .gd(GdConfig::for_parameters(8, 4).unwrap())
            .shards(2)
            .workers(1)
            .spawn(SpawnPolicy::Inline)
            .build()
            .unwrap();
        let reference = run_stream(plain, &data);

        // Checkpoints every 4 batches: the kill point sits past the last
        // checkpoint, so recovery *must* fold deltas (not bit-exact
        // restore) and still converge.
        let dir = recovery_dir("stale-checkpoint");
        let emitted = seed_store(&dir, 4, &data[..cut]);

        let mut engine: CompressionEngine<GdBackend> = builder(&dir, 4).build().unwrap();
        let warm = engine.take_warm_start().expect("store is warm");
        assert_eq!(warm.bytes_in, cut as u64);
        assert!(
            !warm.exact,
            "the newest checkpoint is stale; recovery had to fold deltas"
        );
        assert_eq!(warm.committed, emitted);
        let mut rejoined = warm.committed;
        rejoined.extend(run_stream(engine, &data[cut..]));
        assert_eq!(
            rejoined, reference,
            "folded recovery must resume bit-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The commit-then-emit crash window: the store made the batch durable
    /// but the process died before the sinks saw a byte. Recovery must
    /// replay the full batch — control update first, then the frame it
    /// guards — so the downstream decoder never misses it.
    #[test]
    fn crash_between_commit_and_emission_replays_the_committed_batch() {
        let dir = recovery_dir("commit-no-emit");
        let mut store = EngineStore::create(&dir, 1, 8).unwrap();
        let mut dict = ShardedDictionary::new(8, 1).unwrap();
        dict.set_journal(true);
        let basis = BitVec::from_bytes(&[0x5A; 4]);
        let hash = basis.hash_words();
        dict.classify_at(0, &basis, hash, 0).unwrap();
        let delta = dict.take_delta();
        assert!(!delta.updates.is_empty());
        let mut batch = Batch::default();
        batch.push_payload(PacketType::Compressed, &[9, 9, 9]);
        batch.place_updates(delta.updates.clone());
        store.commit_batch(&batch, None, 32).unwrap();
        // Crash here: committed, nothing emitted.
        drop(store);

        let (_, warm) = EngineStore::open(&dir).unwrap();
        let warm = warm.expect("the batch was durable");
        assert_eq!(warm.batches, 1);
        assert_eq!(warm.bytes_in, 32);
        match &warm.committed[..] {
            [CommittedEntry::Control(update), CommittedEntry::Frame {
                packet_type,
                codec: None,
                bytes,
            }] => {
                assert_eq!(update, &delta.updates[0]);
                assert_eq!(*packet_type, PacketType::Compressed);
                assert_eq!(bytes, &[9, 9, 9]);
            }
            other => panic!("expected [install, frame] replay, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn replayed_stale_install_cannot_corrupt_an_active_mapping() {
    use zipline_repro::zipline_switch::program::PipelineProgram;
    // Learn basis A normally.
    let mut encoder = ZipLineEncodeProgram::new(EncoderConfig::paper_default()).unwrap();
    let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
    let payload_a = vec![0xAAu8; 32];

    let mut ctx = zipline_repro::zipline_switch::packet_ctx::PacketContext::new(
        0,
        EthernetFrame::new(
            MacAddress::local(2),
            MacAddress::local(1),
            ETHERTYPE_IPV4,
            payload_a.clone(),
        ),
    );
    encoder.ingress(&mut ctx, SimTime::ZERO);
    let digest = ctx.digests.pop().unwrap();
    let installs = encoder.handle_digest(digest, SimTime::from_micros(10));
    let install_frame = installs[0].1.clone();
    let acks = decoder.handle_control_packet(install_frame.clone(), SimTime::from_micros(20));
    encoder.handle_control_packet(acks[0].1.clone(), SimTime::from_micros(30));
    assert_eq!(encoder.active_mappings(), 1);

    // An attacker (or a confused controller) replays the same install with a
    // mangled basis but the *old* nonce after the mapping is already active;
    // the decoder installs whatever it is told (it has no way to know), but a
    // replay of the matching ack must not cause the encoder to activate a
    // second, inconsistent mapping.
    let ControlMessage::InstallMapping { id, nonce, .. } =
        ControlMessage::from_frame(&install_frame).unwrap()
    else {
        panic!("expected install");
    };
    let stale_ack = ControlMessage::MappingInstalled { id, nonce }
        .to_frame(MacAddress::local(0xD0), MacAddress::local(0xE0));
    encoder.handle_control_packet(stale_ack, SimTime::from_micros(40));
    assert_eq!(
        encoder.active_mappings(),
        1,
        "no duplicate/ghost mapping appears"
    );
}
