//! PR-10 acceptance over the socket: the self-describing container end to
//! end.
//!
//! * Property: a mixed-codec stream served by the `auto` router arrives
//!   fully tagged and a [`RegistryDecompressor`] reconstructs the input
//!   from the tags alone — no out-of-band codec agreement.
//! * Negotiation: a fixed-backend server advertises its one codec and
//!   leaves every payload's codec byte 0 ("the flow's fixed backend"); a
//!   client advertising a codec set that misses a backend codec gets a
//!   **typed** refusal (not a hang or a torn frame).
//! * Durability: a durable `auto` server killed mid-stream preserves the
//!   per-batch tags in its journal — after restart, replay + resumed
//!   stream decode bit-identically to the full input.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;

use proptest::prelude::*;
use zipline::host::HostPathConfig;
use zipline_engine::{
    CodecId, DictionaryUpdate, EngineConfig, RegistryDecompressor, SpawnPolicy, SyncPolicy,
    CODEC_DEFLATE, CODEC_GD,
};
use zipline_gd::packet::PacketType;
use zipline_gd::GdConfig;
use zipline_server::{
    BackendChoice, ClientHello, ClientSession, Endpoint, FlowKey, Record, RecordReader,
    ServerConfigBuilder, ServerEvent, ServerHandle, WireCodec,
};

const CHUNK: usize = 32;
const BATCH_CHUNKS: usize = 32;
const STREAM_ID: u64 = 0xC0DEC;

/// Small host shape shared by every test: 64-identifier dictionary,
/// 32-chunk batches.
fn host(durable: Option<PathBuf>) -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid GD parameters"),
            shards: 4,
            workers: 2,
            spawn: SpawnPolicy::Inline,
        },
        batch_chunks: BATCH_CHUNKS,
        durable,
        sync: SyncPolicy::Data,
        ..HostPathConfig::paper_default()
    }
}

fn bind(backend: BackendChoice, durable: Option<PathBuf>) -> ServerHandle {
    let config = ServerConfigBuilder::new()
        .host(host(durable))
        .backend(backend)
        .build()
        .expect("valid server config");
    ServerHandle::bind_tcp("127.0.0.1:0", config).expect("server binds")
}

/// Mixed workload in whole batches: GD-friendly segments (few chunk bases,
/// sparse deviations) alternating with text-like segments deflate wins,
/// so the auto router tags batches with both codecs.
fn mixed_data(seed: u64, segments: usize, batches_per_segment: usize) -> Vec<u8> {
    let mut data = Vec::new();
    for s in 0..segments {
        for i in 0..batches_per_segment * BATCH_CHUNKS {
            let mut chunk = vec![0u8; CHUNK];
            if (s + seed as usize).is_multiple_of(2) {
                chunk[0] = ((seed >> (s % 8)) as usize % 5) as u8;
                chunk[8] = 0xA5;
                if i % 7 == 0 {
                    chunk[20] ^= 0x10;
                }
            } else {
                for (j, byte) in chunk.iter_mut().enumerate() {
                    *byte = ((seed as usize + s * 131 + i * 17 + j * 7) % 9) as u8 + b'a';
                }
            }
            data.extend_from_slice(&chunk);
        }
    }
    data
}

/// One client-observed record, in arrival order, tag included.
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Payload(Option<CodecId>, PacketType, Vec<u8>),
    Control(DictionaryUpdate),
}

fn entry_of(event: ServerEvent) -> Option<Entry> {
    match event {
        ServerEvent::Payload {
            packet_type,
            codec,
            bytes,
        } => Some(Entry::Payload(codec, packet_type, bytes)),
        ServerEvent::Control(update) => Some(Entry::Control(update)),
        _ => None,
    }
}

/// Replays `entries` through a fresh registry decoder; panics (failing the
/// test) on unknown tags or misordered updates.
fn decode(entries: &[Entry]) -> Vec<u8> {
    let mut decoder =
        RegistryDecompressor::new(host(None).engine, CODEC_GD).expect("decoder builds");
    let mut out = Vec::new();
    for entry in entries {
        match entry {
            Entry::Control(update) => decoder.apply_update(update).expect("update applies"),
            Entry::Payload(codec, pt, bytes) => decoder
                .restore_payload_tagged(*codec, *pt, bytes, &mut out)
                .expect("payload decodes"),
        }
    }
    out
}

fn codecs_used(entries: &[Entry]) -> (bool, bool) {
    let mut gd = false;
    let mut deflate = false;
    for entry in entries {
        match entry {
            Entry::Payload(Some(codec), ..) if *codec == CODEC_GD => gd = true,
            Entry::Payload(Some(codec), ..) if *codec == CODEC_DEFLATE => deflate = true,
            _ => {}
        }
    }
    (gd, deflate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tagged container over TCP: an auto-routed stream arrives fully
    /// tagged, uses both codecs, and decodes bit-identically through the
    /// registry.
    #[test]
    fn auto_served_streams_decode_from_their_tags_alone(
        seed in any::<u64>(),
        segments in 3usize..6,
        batches_per_segment in 1usize..3,
    ) {
        let data = mixed_data(seed, segments, batches_per_segment);
        let server = bind(BackendChoice::Auto, None);
        let mut session = ClientSession::connect(server.endpoint()).expect("connects");
        session.hello(STREAM_ID, 0).expect("hello answered");
        for chunk in data.chunks(CHUNK) {
            session.send_data(chunk).expect("data sent");
        }
        session.end().expect("end sent");
        let mut entries = Vec::new();
        let done = session
            .drain_to_done(|event| entries.extend(entry_of(event)))
            .expect("clean finish");
        prop_assert_eq!(done.bytes_in, data.len() as u64);
        drop(server.shutdown());

        prop_assert!(
            entries.iter().all(|e| !matches!(e, Entry::Payload(None, ..))),
            "a tagging backend leaves no payload untagged"
        );
        let (gd, deflate) = codecs_used(&entries);
        prop_assert!(gd && deflate, "mixed data routes through both codecs");
        prop_assert_eq!(decode(&entries), data);
    }
}

/// Raw clients against fixed and tagging servers: the negotiation rule of
/// `docs/container-format.md`, over real sockets.
#[test]
fn servers_advertise_their_codecs_and_refuse_codec_sets_that_miss_one() {
    let connect = |endpoint: &Endpoint| -> TcpStream {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).expect("connects"),
            #[cfg(unix)]
            Endpoint::Unix(_) => unreachable!("tests bind TCP"),
        }
    };
    let hello = |codecs: Vec<CodecId>| Record::ClientHello(ClientHello { codecs });
    let key = FlowKey::new(0, STREAM_ID);

    // An unstated codec set against a fixed GD backend: the hello names the
    // one codec, payloads carry codec byte 0 (`None`), clean DONE.
    let server = bind(BackendChoice::Gd, None);
    let mut conn = connect(server.endpoint());
    let mut codec = WireCodec::new();
    let data = vec![7u8; CHUNK * BATCH_CHUNKS];
    for record in [
        hello(Vec::new()),
        Record::Open {
            key,
            entries_held: 0,
        },
        Record::Data {
            key,
            bytes: data.clone(),
        },
        Record::End,
    ] {
        conn.write_all(&codec.encode(&record)).expect("record sent");
    }
    let mut reader = RecordReader::new(conn.try_clone().expect("clone socket"));
    match reader.read_record().expect("reply parses") {
        Some(Record::ServerHello(answer)) => assert_eq!(
            answer.codecs,
            vec![CODEC_GD],
            "a fixed backend advertises exactly its codec"
        ),
        other => panic!("expected SERVER_HELLO, got {other:?}"),
    }
    let mut payloads = 0u64;
    loop {
        match reader.read_record().expect("record parses") {
            Some(Record::Payload { batch, .. }) => {
                assert_eq!(
                    batch.codec(),
                    None,
                    "a fixed backend leaves the codec byte 0"
                );
                payloads += batch.payload_count();
            }
            Some(Record::Opened { .. } | Record::FlowDone { .. }) => {}
            Some(Record::Done(done)) => {
                assert_eq!(done.bytes_in, data.len() as u64);
                assert!(!done.server_initiated);
                break;
            }
            other => panic!("unexpected record {other:?}"),
        }
    }
    assert!(payloads > 0, "the batch produced at least one payload");
    drop(server.shutdown());

    // The tagging auto router advertises every codec it may route to.
    let server = bind(BackendChoice::Auto, None);
    let mut session = ClientSession::connect(server.endpoint()).expect("connects");
    let answer = session.hello_multiplex().expect("hello answered");
    assert!(
        answer.codecs.contains(&CODEC_GD) && answer.codecs.contains(&CODEC_DEFLATE),
        "a tagging server advertises its codec set: {:?}",
        answer.codecs
    );
    drop(session);
    drop(server.shutdown());

    // A client whose advertised codec set misses a codec the backend may
    // emit: refused with a typed ERROR record naming it, before any
    // payload flows.
    let server = bind(BackendChoice::Auto, None);
    let mut conn = connect(server.endpoint());
    conn.write_all(&codec.encode(&hello(vec![CODEC_DEFLATE])))
        .expect("hello sent");
    let mut reader = RecordReader::new(conn.try_clone().expect("clone socket"));
    match reader.read_record().expect("reply parses") {
        Some(Record::Error(message)) => assert!(
            message.contains("missing codec"),
            "the refusal names the missing codec: {message}"
        ),
        other => panic!("expected ERROR, got {other:?}"),
    }
    drop(server.shutdown());
}

/// ISSUE-10 acceptance: a durable `auto` server killed mid-stream keeps
/// the per-batch codec tags in its journal. After restart, the replayed
/// entries plus the resumed stream decode **bit-identically** to the full
/// input through the registry.
#[test]
fn tagged_stream_resumes_bit_identically_after_crash_restart() {
    let data = mixed_data(3, 8, 2);
    let crash_feed = data.len() / 2;
    let dir =
        std::env::temp_dir().join(format!("zipline-server-codec-tags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Incarnation 1: feed half the input, never send END, kill the server
    // once responses have landed.
    let server_a = bind(BackendChoice::Auto, Some(dir.clone()));
    let mut client1 = ClientSession::connect(server_a.endpoint()).expect("connects");
    let hello = client1.hello(STREAM_ID, 0).expect("hello answered");
    assert!(!hello.warm);
    let mut received: Vec<Entry> = Vec::new();
    for chunk in data[..crash_feed].chunks(CHUNK) {
        client1.send_data(chunk).expect("data sent");
        while let Some(event) = client1.try_event() {
            received.extend(entry_of(event));
        }
    }
    while received.len() < 8 {
        match client1.next_event() {
            Some(event) => received.extend(entry_of(event)),
            None => panic!("server hung up before the staged crash"),
        }
    }
    server_a.abort();
    for event in client1.close() {
        received.extend(entry_of(event));
    }
    let held = received.len() as u64;

    // Incarnation 2: restart over the same store; the replay past our
    // cursor and the resumed stream arrive tagged.
    let server_b = bind(BackendChoice::Auto, Some(dir.clone()));
    let mut client2 = ClientSession::connect(server_b.endpoint()).expect("connects");
    let hello = client2.hello(STREAM_ID, held).expect("hello answered");
    assert!(hello.warm, "restart must restore the durable store");
    let resume = hello.resume_bytes_in as usize;
    assert_eq!(resume % CHUNK, 0, "commits cut at whole-batch boundaries");
    assert!(resume <= crash_feed, "cannot commit past the crash point");

    let mut resumed: Vec<Entry> = Vec::new();
    for chunk in data[resume..].chunks(CHUNK) {
        client2.send_data(chunk).expect("data sent");
        while let Some(event) = client2.try_event() {
            resumed.extend(entry_of(event));
        }
    }
    client2.end().expect("end sent");
    let done = client2
        .drain_to_done(|event| resumed.extend(entry_of(event)))
        .expect("clean finish");
    assert!(!done.server_initiated);
    let report = server_b.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // The acceptance property: pre-crash + replayed + resumed entries,
    // concatenated, stay fully tagged, use both codecs, and decode
    // bit-identically to the full input.
    received.extend(resumed);
    assert!(
        received
            .iter()
            .all(|e| !matches!(e, Entry::Payload(None, ..))),
        "tags survive the journal and the restart"
    );
    let (gd, deflate) = codecs_used(&received);
    assert!(gd && deflate, "the mixed stream exercised both codecs");
    assert_eq!(
        decode(&received),
        data,
        "the restored stream must be bit-identical to the input"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
