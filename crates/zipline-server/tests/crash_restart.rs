//! The PR-7 acceptance property, over the socket: a **durable server killed
//! mid-stream** and restarted over the same store yields a client-observed
//! record stream **bit-identical** to an uninterrupted run.
//!
//! The run is staged with [`ServerHandle::abort`] (sockets close both ways,
//! streams drop without finishing — exactly the state a process kill leaves
//! behind) against a churn-heavy [`CrashWorkload`], so the recovery has to
//! restore identifier-recycling state, not just a warm cache. The
//! reconnecting client presents its replay cursor (`entries_held`); the
//! server replays the committed journal past it and names the input byte
//! offset to resume from.
//!
//! The cursor counts entries — payloads and control updates — not records:
//! a client that went away in the middle of a batch record's worth of
//! entries names a position inside a batch, and the replay starts exactly
//! there (third test).
//!
//! The durable layout is older than the wire: a store written by the
//! pre-v4 classic handler for stream `S` must resume, bit-identically, as
//! flow `(0, S)` — the second test builds such a store the way that handler
//! did and resumes it over the socket.

use std::cell::RefCell;
use std::path::PathBuf;

use zipline::host::HostPathConfig;
use zipline_engine::{
    CompressionBackend, DictionaryUpdate, EngineConfig, GdBackend, PipelinedStream, SpawnPolicy,
    SyncPolicy,
};
use zipline_gd::packet::PacketType;
use zipline_gd::GdConfig;
use zipline_server::{
    server::stream_dir, ClientSession, Endpoint, ServerConfigBuilder, ServerEvent, ServerHandle,
};
use zipline_traces::{ChunkWorkload, CrashWorkload};

const CHUNK: usize = 32;
const STREAM_ID: u64 = 0xCAFE;

/// One client-observed record, in arrival order.
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Payload(PacketType, Vec<u8>),
    Control(DictionaryUpdate),
}

fn entry_of(event: ServerEvent) -> Option<Entry> {
    match event {
        ServerEvent::Payload {
            packet_type, bytes, ..
        } => Some(Entry::Payload(packet_type, bytes)),
        ServerEvent::Control(update) => Some(Entry::Control(update)),
        _ => None,
    }
}

/// Churn-heavy durable host shape: 64-identifier dictionary, 32-chunk
/// batches, checkpoint every batch, fdatasync barriers.
fn durable_host(dir: PathBuf) -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid GD parameters"),
            shards: 4,
            workers: 2,
            spawn: SpawnPolicy::Inline,
        },
        batch_chunks: 32,
        durable: Some(dir),
        sync: SyncPolicy::Data,
        ..HostPathConfig::paper_default()
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zipline-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bind(dir: PathBuf) -> ServerHandle {
    ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(durable_host(dir))
            .build()
            .expect("valid server config"),
    )
    .expect("server binds")
}

/// Streams `bytes` (chunked) through one clean session, returning every
/// payload/control entry in order.
fn uninterrupted_run(endpoint: &Endpoint, stream_id: u64, bytes: &[u8]) -> Vec<Entry> {
    let mut session = ClientSession::connect(endpoint).expect("connects");
    let hello = session.hello(stream_id, 0).expect("hello answered");
    assert_eq!(hello.replay_entries, 0, "fresh store has nothing to replay");
    for chunk in bytes.chunks(CHUNK) {
        session.send_data(chunk).expect("data sent");
    }
    session.end().expect("end sent");
    let mut entries = Vec::new();
    let done = session
        .drain_to_done(|event| entries.extend(entry_of(event)))
        .expect("clean finish");
    assert_eq!(done.bytes_in, bytes.len() as u64);
    entries
}

#[test]
fn killed_mid_stream_and_restarted_is_bit_identical_to_uninterrupted() {
    let workload = CrashWorkload::exceeding_capacity(64, 4, CHUNK);
    let full_bytes = workload.full().bytes();

    // Ground truth: the same stream against a durable server that never
    // dies.
    let ref_dir = temp_root("ref");
    let ref_server = bind(ref_dir.clone());
    let reference = uninterrupted_run(ref_server.endpoint(), STREAM_ID, &full_bytes);
    let report = ref_server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        reference
            .iter()
            .any(|e| matches!(e, Entry::Control(DictionaryUpdate { .. }))),
        "the workload must churn the dictionary"
    );

    // Incarnation 1: feed the pre-crash phase, never send END, kill the
    // server once some responses have arrived.
    let crash_dir = temp_root("crash");
    let server_a = bind(crash_dir.clone());
    let mut client1 = ClientSession::connect(server_a.endpoint()).expect("connects");
    let hello = client1.hello(STREAM_ID, 0).expect("hello answered");
    assert!(!hello.warm);
    let mut received: Vec<Entry> = Vec::new();
    for chunk in workload.pre_crash().chunks() {
        client1.send_data(&chunk).expect("data sent");
        while let Some(event) = client1.try_event() {
            received.extend(entry_of(event));
        }
    }
    // Let responses land so the kill happens with entries both delivered
    // and still in flight; completeness is not required — whatever arrived
    // becomes the replay cursor.
    while received.len() < 50 {
        match client1.next_event() {
            Some(event) => received.extend(entry_of(event)),
            None => panic!("server hung up before the staged crash"),
        }
    }
    server_a.abort();
    // Drain the tail: only complete records count, a torn one is dropped by
    // the reader — exactly the client's view of a real crash.
    for event in client1.close() {
        received.extend(entry_of(event));
    }
    let held = received.len() as u64;
    assert!(
        stream_dir(&crash_dir, STREAM_ID)
            .join("frames.log")
            .exists()
            || stream_dir(&crash_dir, STREAM_ID).exists(),
        "the stream journaled under its own directory"
    );

    // Incarnation 2: restart over the same store, reconnect with the
    // replay cursor, resume input at the server-named offset.
    let server_b = bind(crash_dir.clone());
    let mut client2 = ClientSession::connect(server_b.endpoint()).expect("connects");
    let hello = client2.hello(STREAM_ID, held).expect("hello answered");
    assert!(hello.warm, "restart must restore the durable store");
    assert_eq!(
        hello.reseed_entries, 0,
        "a live journal replays, not reseeds"
    );
    let resume = hello.resume_bytes_in as usize;
    assert_eq!(resume % CHUNK, 0, "commits cut at whole-batch boundaries");
    assert!(
        resume <= workload.crash_offset_bytes(),
        "cannot have committed past the crash point"
    );

    let mut resumed: Vec<Entry> = Vec::new();
    for chunk in full_bytes[resume..].chunks(CHUNK) {
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
    assert!(
        report.stats.replayed_entries > 0 || held == report.stats.replayed_entries,
        "journal replay is part of the resume path"
    );

    // The acceptance property: pre-crash + replayed + resumed records,
    // concatenated, are bit-identical to the uninterrupted run.
    received.extend(resumed);
    assert_eq!(
        received.len(),
        reference.len(),
        "crash-restart stream length diverges from the uninterrupted run"
    );
    assert_eq!(
        received, reference,
        "crash-restart stream must be bit-identical to the uninterrupted run"
    );

    // Epilogue: after the clean DONE the journal compacted and the cursor
    // reset — a cold reconnect is resynced by synthesized RESEED installs,
    // not by replay.
    let server_c = bind(crash_dir.clone());
    let mut client3 = ClientSession::connect(server_c.endpoint()).expect("connects");
    let hello = client3.hello(STREAM_ID, 0).expect("hello answered");
    assert!(hello.warm);
    assert_eq!(hello.replay_entries, 0, "compacted journal has no entries");
    assert!(
        hello.reseed_entries > 0,
        "a surviving dictionary reseeds a cold client"
    );
    let mut reseeds = 0u64;
    client3.end().expect("end sent");
    let done = client3
        .drain_to_done(|event| {
            if matches!(event, ServerEvent::Reseed(_)) {
                reseeds += 1;
            }
        })
        .expect("empty resumed stream still finishes");
    assert_eq!(reseeds, hello.reseed_entries);
    assert_eq!(done.bytes_in, 0, "nothing was pushed this incarnation");
    assert_eq!(
        hello.resume_bytes_in,
        full_bytes.len() as u64,
        "the store's input-byte total persists across the clean finish"
    );
    drop(server_c.shutdown());

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// `root`'s files, recursively, under `to`.
fn copy_tree(root: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("directory creates");
    for entry in std::fs::read_dir(root).expect("directory lists") {
        let entry = entry.expect("entry reads");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("file copies");
        }
    }
}

/// The replay cursor names an entry, wherever the batch records fell: a
/// reconnect holding exactly one batch, one entry less (the batch's last
/// payload never arrived) and one entry more (the client stopped just
/// inside the next batch) each replays from exactly that entry, and held +
/// replayed + resumed is bit-identical to the uninterrupted stream.
#[test]
fn a_cursor_at_before_and_after_a_batch_boundary_replays_from_exactly_there() {
    const CURSOR_STREAM: u64 = 0xC0FFEE;
    let workload = CrashWorkload::exceeding_capacity(64, 4, CHUNK);
    let full_bytes = workload.full().bytes();

    let ref_dir = temp_root("cursor-ref");
    let ref_server = bind(ref_dir.clone());
    let reference = uninterrupted_run(ref_server.endpoint(), CURSOR_STREAM, &full_bytes);
    drop(ref_server.shutdown());

    // One store killed mid-stream, after every pre-crash batch committed
    // (the inline engine commits a batch before it answers with it).
    let crash_dir = temp_root("cursor-crash");
    let server = bind(crash_dir.clone());
    let mut client = ClientSession::connect(server.endpoint()).expect("connects");
    client.hello(CURSOR_STREAM, 0).expect("hello answered");
    let pre_crash: Vec<Vec<u8>> = workload.pre_crash().chunks().collect();
    for chunk in &pre_crash {
        client.send_data(chunk).expect("data sent");
    }
    let whole_batches = pre_crash.len() / 32;
    assert!(
        whole_batches >= 3,
        "the pre-crash phase spans several batches"
    );
    let mut payloads = 0;
    while payloads < whole_batches * 32 {
        match client.next_event().expect("every whole batch comes back") {
            ServerEvent::Payload { .. } => payloads += 1,
            _ => continue,
        }
    }
    server.abort();
    drop(client.close());

    // Where a batch ends in the entry stream: just past its last payload
    // (its control updates sit among and before its payloads).
    let end_of_payload = |n: usize| {
        let nth = reference
            .iter()
            .enumerate()
            .filter(|(_, entry)| matches!(entry, Entry::Payload(..)))
            .nth(n - 1);
        1 + nth.expect("the stream has that many payloads").0
    };
    let boundary = end_of_payload(32);
    let committed = end_of_payload(whole_batches * 32);
    assert!(
        matches!(reference[boundary], Entry::Control(_)),
        "the second batch opens with an install, so `boundary + 1` splits a batch's updates"
    );

    for held in [boundary, boundary - 1, boundary + 1] {
        let dir = temp_root(&format!("cursor-{held}"));
        copy_tree(&crash_dir, &dir);
        let server = bind(dir.clone());
        let mut client = ClientSession::connect(server.endpoint()).expect("connects");
        let hello = client
            .hello(CURSOR_STREAM, held as u64)
            .expect("hello answered");
        assert!(hello.warm);
        assert_eq!(hello.resume_bytes_in as usize, whole_batches * 32 * CHUNK);
        let mut received = reference[..held].to_vec();
        for chunk in full_bytes[hello.resume_bytes_in as usize..].chunks(CHUNK) {
            client.send_data(chunk).expect("data sent");
        }
        client.end().expect("end sent");
        let mut replayed = 0;
        client
            .drain_to_done(|event| {
                if let Some(entry) = entry_of(event) {
                    replayed += 1;
                    if replayed == 1 {
                        assert_eq!(
                            entry, reference[held],
                            "held {held}: the replay starts at the cursor"
                        );
                    }
                    received.push(entry);
                }
            })
            .expect("clean finish");
        let report = server.shutdown();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            (hello.replay_entries, report.stats.replayed_entries),
            ((committed - held) as u64, (committed - held) as u64),
            "held {held}: the replay is the committed journal past the cursor"
        );
        assert_eq!(
            received, reference,
            "held {held}: held + replayed + resumed must be the uninterrupted stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Wire v4 moved framing, not storage: a store the pre-v4 classic handler
/// left behind for stream `S` — one pipelined engine journaling under
/// `stream_dir(root, S)`, killed mid-stream — resumes under the unified
/// session as flow `(0, S)`, and pre-crash + resumed records are
/// bit-identical to an uninterrupted run.
#[test]
fn a_store_written_by_the_classic_handler_resumes_as_the_tenant_zero_flow() {
    const LEGACY_STREAM: u64 = 0x1E6AC7;
    let workload = CrashWorkload::exceeding_capacity(64, 4, CHUNK);
    let full_bytes = workload.full().bytes();

    let ref_dir = temp_root("legacy-ref");
    let ref_server = bind(ref_dir.clone());
    let reference = uninterrupted_run(ref_server.endpoint(), LEGACY_STREAM, &full_bytes);
    drop(ref_server.shutdown());

    // The parent commit's `serve_stream`, minus the socket: the server's
    // host configuration with `durable` pointed at the stream's directory,
    // one engine from its builder, one pipelined stream whose sinks are the
    // client's view (commit-then-emit: every entry seen is journaled).
    // Dropped without `finish` — the state a killed server leaves.
    let root = temp_root("legacy");
    let mut host = durable_host(stream_dir(&root, LEGACY_STREAM));
    host.pipeline_depth = Some(2);
    let backend = GdBackend::from_engine_config(&host.engine).expect("backend builds");
    let engine = host
        .engine_builder()
        .backend(backend)
        .build()
        .expect("engine builds");
    let seen = RefCell::new(Vec::new());
    let mut stream = PipelinedStream::with_control_sink(
        engine,
        host.batch_chunks,
        |pt, bytes: &[u8]| seen.borrow_mut().push(Entry::Payload(pt, bytes.to_vec())),
        Some(|update: &DictionaryUpdate| seen.borrow_mut().push(Entry::Control(update.clone()))),
    )
    .expect("stream builds");
    for chunk in workload.pre_crash().chunks() {
        stream.push_record(&chunk).expect("push succeeds");
    }
    drop(stream);
    let mut received = seen.into_inner();
    assert!(
        !received.is_empty(),
        "the pre-crash phase committed batches"
    );

    let server = bind(root.clone());
    let mut client = ClientSession::connect(server.endpoint()).expect("connects");
    let hello = client
        .hello(LEGACY_STREAM, received.len() as u64)
        .expect("the old store opens as tenant 0's flow");
    assert!(hello.warm, "the classic store is found where it always was");
    assert_eq!(hello.reseed_entries, 0, "a live journal never reseeds");
    let resume = hello.resume_bytes_in as usize;
    assert!(resume > 0 && resume <= workload.crash_offset_bytes());
    for chunk in full_bytes[resume..].chunks(CHUNK) {
        client.send_data(chunk).expect("data sent");
    }
    client.end().expect("end sent");
    client
        .drain_to_done(|event| received.extend(entry_of(event)))
        .expect("clean finish");
    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    assert_eq!(
        received, reference,
        "classic store + v4 resume must be bit-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&root);
}
