//! Stores written by the **parent commit's** server still open: the
//! fixtures under `tests/fixtures/parent-store` are the durable roots three
//! of its servers left behind when they were killed mid-stream (a classic
//! GD stream, two multiplexed GD flows, a classic auto-routed stream — see
//! the README beside them for the program that wrote them). Their
//! journals frame every payload and control update on its own (`0x12
//! FRAME`, `0x13 CONTROL`, `0x15 FRAME_TAGGED`); this server reads those,
//! appends batch records (`0x16`) after them, and the replayed + resumed
//! stream is bit-identical to an uninterrupted run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use zipline::host::HostPathConfig;
use zipline_engine::{
    flow_dir, CodecId, DictionaryUpdate, EngineConfig, RegistryDecompressor, SpawnPolicy, CODEC_GD,
};
use zipline_gd::packet::PacketType;
use zipline_gd::GdConfig;
use zipline_server::{
    BackendChoice, ClientSession, FlowKey, ServerConfigBuilder, ServerEvent, ServerHandle,
};

const CHUNK: usize = 32;
const STREAM: u64 = 0x51;
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/parent-store");

const KIND_FRAME: u8 = 0x12;
const KIND_CONTROL: u8 = 0x13;
const KIND_FRAME_TAGGED: u8 = 0x15;
const KIND_BATCH: u8 = 0x16;

/// The host shape the fixtures were written under.
fn host(durable: PathBuf) -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 4).expect("valid GD parameters"),
            shards: 4,
            workers: 2,
            spawn: SpawnPolicy::Inline,
        },
        batch_chunks: 8,
        durable: Some(durable),
        ..HostPathConfig::paper_default()
    }
}

fn bind(root: &Path, backend: BackendChoice) -> ServerHandle {
    ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host(root.to_path_buf()))
            .backend(backend)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds")
}

/// The fixtures' input generator: every 32-byte basis appears twice in a
/// row, and there are more of them than the 16-identifier dictionary holds.
/// The parent's servers were fed a prefix of these streams.
fn flow_bytes(seed: u64, chunks: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunks * CHUNK);
    for chunk in 0..chunks as u64 {
        let mut word = seed ^ (chunk / 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..CHUNK {
            word = word
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push((word >> 56) as u8);
        }
    }
    out
}

/// The auto-routed fixture's input: 30 churny chunks, then text-like bytes.
fn mixed_bytes(chunks: usize) -> Vec<u8> {
    let mut out = flow_bytes(0xA070, 30);
    while out.len() < chunks * CHUNK {
        out.extend_from_slice(b"the quick brown fox jumps over the lazy dog; ");
    }
    out.truncate(chunks * CHUNK);
    out
}

/// A scratch copy of fixture `name`'s durable root.
fn scratch_copy(name: &str) -> PathBuf {
    fn copy_tree(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).expect("scratch directory");
        for entry in std::fs::read_dir(src).expect("fixture directory") {
            let entry = entry.expect("fixture entry");
            let to = dst.join(entry.file_name());
            if entry.file_type().expect("file type").is_dir() {
                copy_tree(&entry.path(), &to);
            } else {
                std::fs::copy(entry.path(), to).expect("fixture file copies");
            }
        }
    }
    let root = scratch(name);
    copy_tree(&Path::new(FIXTURES).join(name), &root);
    root
}

fn scratch(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "zipline-parent-store-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// How many records of each kind `key`'s frame journal under `root` holds.
fn journal_kinds(root: &Path, key: FlowKey) -> BTreeMap<u8, usize> {
    let log = std::fs::read(flow_dir(root, key).join("frames.zfl")).expect("journal reads");
    let mut kinds = BTreeMap::new();
    let mut at = 0;
    while at + 8 <= log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().expect("4 bytes")) as usize;
        *kinds.entry(log[at + 4]).or_default() += 1;
        at += 4 + len + 4;
    }
    kinds
}

/// One client-observed entry of one flow, in arrival order.
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Payload(Option<CodecId>, PacketType, Vec<u8>),
    Control(DictionaryUpdate),
}

/// Buckets an event by flow (the classic stream is `(0, STREAM)`); `None`
/// for lifecycle records.
fn entry_of(event: ServerEvent) -> Option<(FlowKey, Entry)> {
    let classic = FlowKey::new(0, STREAM);
    match event {
        ServerEvent::Payload {
            packet_type,
            codec,
            bytes,
        } => Some((classic, Entry::Payload(codec, packet_type, bytes))),
        ServerEvent::Control(update) => Some((classic, Entry::Control(update))),
        ServerEvent::FlowPayload {
            key,
            packet_type,
            codec,
            bytes,
        } => Some((key, Entry::Payload(codec, packet_type, bytes))),
        ServerEvent::FlowControl { key, update } => Some((key, Entry::Control(update))),
        _ => None,
    }
}

/// `bytes` through one clean classic session against a fresh store.
fn uninterrupted(backend: BackendChoice, tag: &str, bytes: &[u8]) -> Vec<Entry> {
    let root = scratch(tag);
    let server = bind(&root, backend);
    let mut client = ClientSession::connect(server.endpoint()).expect("connects");
    client.hello(STREAM, 0).expect("hello answered");
    for chunk in bytes.chunks(CHUNK) {
        client.send_data(chunk).expect("data sent");
    }
    client.end().expect("end sent");
    let mut entries = Vec::new();
    client
        .drain_to_done(|event| entries.extend(entry_of(event).map(|(_, entry)| entry)))
        .expect("clean finish");
    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let _ = std::fs::remove_dir_all(&root);
    entries
}

/// Resumes the classic stream of fixture `name` from a cold client: the
/// whole parent-written journal replays, input resumes at the offset the
/// server names — first only part of it, and the server is killed again, so
/// the journal now holds the parent's per-payload records *and* batch
/// records behind them; then the rest, to a clean finish. Returns everything
/// the client received, in order.
fn classic_fixture_resumes(
    name: &str,
    backend: BackendChoice,
    full: &[u8],
    old_kinds: &[u8],
) -> Vec<Entry> {
    let key = FlowKey::new(0, STREAM);
    let root = scratch_copy(name);
    let kinds = journal_kinds(&root, key);
    assert!(
        old_kinds.iter().all(|kind| kinds.contains_key(kind)) && !kinds.contains_key(&KIND_BATCH),
        "the fixture is a parent-written journal, got kinds {kinds:02x?}"
    );

    let server = bind(&root, backend);
    let mut client = ClientSession::connect(server.endpoint()).expect("connects");
    let hello = client.hello(STREAM, 0).expect("the parent's store opens");
    assert!(hello.warm && hello.reseed_entries == 0);
    assert!(
        hello.replay_entries > 0,
        "a killed stream's journal replays"
    );
    let resume = hello.resume_bytes_in as usize;
    assert!(resume > 0 && resume.is_multiple_of(8 * CHUNK) && resume < full.len());
    let midway = resume + (full.len() - resume) / 2 / CHUNK * CHUNK;
    let mut received = Vec::new();
    for chunk in full[resume..midway].chunks(CHUNK) {
        client.send_data(chunk).expect("data sent");
    }
    while received.len() < hello.replay_entries as usize + 2 {
        let event = client.next_event().expect("replay, then live batches");
        received.extend(entry_of(event).map(|(_, entry)| entry));
    }
    drop(server.abort());
    for event in client.close() {
        received.extend(entry_of(event).map(|(_, entry)| entry));
    }
    let kinds = journal_kinds(&root, key);
    assert!(
        old_kinds.iter().all(|kind| kinds.contains_key(kind)) && kinds.contains_key(&KIND_BATCH),
        "new commits append batch records after the parent's, got kinds {kinds:02x?}"
    );

    let server = bind(&root, backend);
    let mut client = ClientSession::connect(server.endpoint()).expect("connects");
    let hello = client
        .hello(STREAM, received.len() as u64)
        .expect("the mixed journal opens");
    let resume = hello.resume_bytes_in as usize;
    assert!(resume <= midway);
    for chunk in full[resume..].chunks(CHUNK) {
        client.send_data(chunk).expect("data sent");
    }
    client.end().expect("end sent");
    client
        .drain_to_done(|event| received.extend(entry_of(event).map(|(_, entry)| entry)))
        .expect("clean finish");
    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        received.iter().any(|e| matches!(e, Entry::Control(_))),
        "the stream churns its dictionary"
    );
    let _ = std::fs::remove_dir_all(&root);
    received
}

#[test]
fn a_classic_stream_the_parent_server_was_killed_on_resumes_bit_identically() {
    let full = flow_bytes(0xC1A5, 90);
    let received = classic_fixture_resumes(
        "classic",
        BackendChoice::Gd,
        &full,
        &[KIND_FRAME, KIND_CONTROL],
    );
    assert_eq!(
        received,
        uninterrupted(BackendChoice::Gd, "classic-ref", &full),
        "parent store + resume must be bit-identical to the uninterrupted run"
    );
}

/// The auto router's routing estimates are not journaled, so a restarted
/// stream may route differently from an uninterrupted one; what the journal
/// owes is the tags: replay + resumed stream stay fully tagged and decode,
/// from the tags alone, to exactly the input.
#[test]
fn a_tagged_stream_the_parent_server_was_killed_on_resumes_with_its_codec_tags() {
    let full = mixed_bytes(120);
    let received = classic_fixture_resumes(
        "auto",
        BackendChoice::Auto,
        &full,
        &[KIND_FRAME_TAGGED, KIND_CONTROL],
    );
    let mut decoder =
        RegistryDecompressor::new(host(PathBuf::new()).engine, CODEC_GD).expect("decoder builds");
    let mut restored = Vec::new();
    for entry in &received {
        match entry {
            Entry::Control(update) => decoder.apply_update(update).expect("update applies"),
            Entry::Payload(codec, packet_type, bytes) => {
                assert!(codec.is_some(), "tags survive the journal and the restart");
                decoder
                    .restore_payload_tagged(*codec, *packet_type, bytes, &mut restored)
                    .expect("payload decodes")
            }
        }
    }
    assert_eq!(restored, full, "the restored stream must be the input");
}

#[test]
fn multiplexed_flows_the_parent_server_was_killed_on_resume_bit_identically() {
    let flows = [
        (FlowKey::new(1, 7), flow_bytes(0xF10A, 80)),
        (FlowKey::new(2, 7), flow_bytes(0xF10B, 80)),
    ];
    let root = scratch_copy("mux");
    for (key, _) in &flows {
        let kinds = journal_kinds(&root, *key);
        assert!(kinds.contains_key(&KIND_FRAME) && !kinds.contains_key(&KIND_BATCH));
    }

    let server = bind(&root, BackendChoice::Gd);
    let mut client = ClientSession::connect(server.endpoint()).expect("connects");
    client.hello_multiplex().expect("hello answered");
    let mut offsets: BTreeMap<FlowKey, usize> = BTreeMap::new();
    let mut received: BTreeMap<FlowKey, Vec<Entry>> = BTreeMap::new();
    for (key, _) in &flows {
        client.open_flow(*key, 0).expect("open sent");
    }
    while offsets.len() < flows.len() {
        match client.next_event().expect("OPENED arrives for every flow") {
            ServerEvent::FlowOpened { key, resume } => {
                assert!(resume.warm && resume.replay_entries > 0);
                offsets.insert(key, resume.resume_bytes_in as usize);
            }
            event => {
                if let Some((key, entry)) = entry_of(event) {
                    received.entry(key).or_default().push(entry);
                }
            }
        }
    }
    for round in 0..80 {
        for (key, bytes) in &flows {
            let at = offsets[key] + round * CHUNK;
            if at < bytes.len() {
                client
                    .send_flow_data(*key, &bytes[at..at + CHUNK])
                    .expect("data sent");
            }
        }
    }
    for (key, _) in &flows {
        client.end_flow(*key).expect("end flow sent");
    }
    client.end().expect("end sent");
    client
        .drain_to_done(|event| {
            if let Some((key, entry)) = entry_of(event) {
                received.entry(key).or_default().push(entry);
            }
        })
        .expect("clean finish");
    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    for (key, bytes) in &flows {
        let reference = uninterrupted(BackendChoice::Gd, &format!("mux-ref-{}", key.tenant), bytes);
        assert_eq!(
            received[key], reference,
            "{key}: parent store + resume must match a dedicated uninterrupted stream"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
