//! ISSUE 9 acceptance, over the socket: **many tenant-scoped flows
//! multiplexed on one connection** decode losslessly and independently —
//! each flow's record stream is bit-identical to a dedicated single-stream
//! connection carrying the same data, so one tenant's dictionary churn
//! never perturbs another tenant's decoder — and a **durable multiplexed
//! server killed mid-run resumes every flow bit-identically** from its
//! tenant-scoped journal. A peer speaking any wire version but the current
//! one is rejected with a typed `ERROR` record before any stream state
//! exists.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use zipline::host::HostPathConfig;
use zipline_engine::{
    flow_dir, CodecId, DictionaryUpdate, EngineConfig, PipelinedStream, SpawnPolicy, SyncPolicy,
};
use zipline_gd::packet::PacketType;
use zipline_gd::{CrcEngine, CrcSpec, GdConfig};
use zipline_server::wire::REQUEST_MAGIC;
use zipline_server::{
    ClientSession, Endpoint, FlowDecoderPool, FlowKey, Record, RecordReader, ServerConfigBuilder,
    ServerEvent, ServerHandle, WIRE_VERSION,
};

use zipline_traces::{ChurnWorkload, ChurnWorkloadConfig};

const CHUNK: usize = 32;
const BATCH: usize = 8;

/// Churn-heavy host shape: 64-identifier dictionary, 8-chunk batches.
fn host(durable: Option<PathBuf>) -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid GD parameters"),
            shards: 4,
            workers: 2,
            spawn: SpawnPolicy::Inline,
        },
        batch_chunks: BATCH,
        sync: SyncPolicy::Data,
        durable,
        ..HostPathConfig::paper_default()
    }
}

fn bind(durable: Option<PathBuf>) -> ServerHandle {
    ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host(durable))
            .build()
            .expect("valid server config"),
    )
    .expect("server binds")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zipline-mux-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic churny input for one flow: mostly-distinct 32-byte chunks
/// so the 64-entry dictionary installs and evicts continuously, with every
/// flow's patterns disjoint from every other's.
fn flow_bytes(seed: u64, chunks: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunks * CHUNK);
    for i in 0..chunks as u64 {
        for j in 0..CHUNK as u64 {
            let word = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_mul(31))
                .wrapping_add(j.wrapping_mul(7));
            out.push((word >> 16) as u8);
        }
    }
    out
}

/// One client-observed record of one flow, tag stripped, in arrival order.
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Payload(Option<CodecId>, PacketType, Vec<u8>),
    Control(DictionaryUpdate),
}

/// Buckets a multiplexed event by flow; `None` for lifecycle records.
fn flow_entry(event: &ServerEvent) -> Option<(FlowKey, Entry)> {
    match event {
        ServerEvent::FlowPayload {
            key,
            codec,
            packet_type,
            bytes,
        } => Some((*key, Entry::Payload(*codec, *packet_type, bytes.clone()))),
        ServerEvent::FlowControl { key, update } => Some((*key, Entry::Control(update.clone()))),
        _ => None,
    }
}

/// Streams `bytes` through one dedicated classic connection, returning the
/// flow-agnostic record stream — the isolation reference a multiplexed
/// flow must be indistinguishable from.
fn dedicated_run(endpoint: &Endpoint, stream_id: u64, bytes: &[u8]) -> Vec<Entry> {
    let mut session = ClientSession::connect(endpoint).expect("connects");
    session.hello(stream_id, 0).expect("hello answered");
    for chunk in bytes.chunks(CHUNK) {
        session.send_data(chunk).expect("data sent");
    }
    session.end().expect("end sent");
    let mut entries = Vec::new();
    session
        .drain_to_done(|event| match event {
            ServerEvent::Payload {
                codec,
                packet_type,
                bytes,
            } => {
                entries.push(Entry::Payload(codec, packet_type, bytes));
            }
            ServerEvent::Control(update) => entries.push(Entry::Control(update)),
            _ => {}
        })
        .expect("clean finish");
    entries
}

/// Three flows across two tenants, with pairwise-disjoint data.
fn flows() -> Vec<(FlowKey, Vec<u8>)> {
    vec![
        (FlowKey::new(1, 0), flow_bytes(0xA11CE, 48)),
        (FlowKey::new(1, 1), flow_bytes(0xB0B, 48)),
        (FlowKey::new(2, 0), flow_bytes(0xC44B, 48)),
    ]
}

/// Pushes `flows` chunk-interleaved over one multiplexed session, ends
/// every flow and the connection, and returns the per-flow record streams
/// plus the per-flow `FLOW_DONE` summaries.
fn multiplexed_run(
    endpoint: &Endpoint,
    flows: &[(FlowKey, Vec<u8>)],
) -> (BTreeMap<FlowKey, Vec<Entry>>, BTreeMap<FlowKey, u64>) {
    let mut session = ClientSession::connect(endpoint).expect("connects");
    session.hello_multiplex().expect("hello answered");
    for (key, _) in flows {
        session.open_flow(*key, 0).expect("open sent");
    }
    let mut streams: BTreeMap<FlowKey, Vec<Entry>> = BTreeMap::new();
    let mut done_bytes: BTreeMap<FlowKey, u64> = BTreeMap::new();
    let chunks: Vec<Vec<&[u8]>> = flows
        .iter()
        .map(|(_, bytes)| bytes.chunks(CHUNK).collect())
        .collect();
    let rounds = chunks.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, (key, _)) in flows.iter().enumerate() {
            if let Some(chunk) = chunks[i].get(round) {
                session.send_flow_data(*key, chunk).expect("data sent");
            }
            while let Some(event) = session.try_event() {
                if let Some((key, entry)) = flow_entry(&event) {
                    streams.entry(key).or_default().push(entry);
                }
            }
        }
    }
    for (key, _) in flows {
        session.end_flow(*key).expect("end sent");
    }
    session.end().expect("end sent");
    session
        .drain_to_done(|event| {
            if let Some((key, entry)) = flow_entry(&event) {
                streams.entry(key).or_default().push(entry);
            } else if let ServerEvent::FlowDone { key, summary } = event {
                assert!(!summary.server_initiated, "the client ended this flow");
                done_bytes.insert(key, summary.bytes_in);
            }
        })
        .expect("clean finish");
    (streams, done_bytes)
}

#[test]
fn many_flows_one_socket_decode_losslessly_and_independently() {
    let flows = flows();
    let server = bind(None);
    let (streams, done_bytes) = multiplexed_run(server.endpoint(), &flows);

    // Every flow restores bit-identically through one decoder pool driven
    // only by its tagged record stream.
    let mut pool = FlowDecoderPool::new(host(None).engine);
    for (key, bytes) in &flows {
        pool.open(*key).expect("pool open");
        assert_eq!(done_bytes[key], bytes.len() as u64);
        let mut restored = Vec::new();
        for entry in streams.get(key).expect("flow produced records") {
            match entry {
                Entry::Payload(codec, pt, payload) => pool
                    .decode_payload(*key, *codec, *pt, payload, &mut restored)
                    .expect("payload decodes"),
                Entry::Control(update) => {
                    pool.observe_control(*key, update)
                        .expect("in-order control");
                }
            }
        }
        assert_eq!(&restored, bytes, "{key} did not restore bit-identically");
    }

    // Isolation: each multiplexed flow's stream equals a dedicated
    // single-stream connection carrying the same data — the interleaved
    // churn of the other tenants changed nothing.
    for (i, (key, bytes)) in flows.iter().enumerate() {
        let reference = dedicated_run(server.endpoint(), 0x0DED + i as u64, bytes);
        assert_eq!(
            streams[key], reference,
            "{key} diverged from its dedicated-connection reference"
        );
    }

    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
}

/// The wire carries one `PAYLOAD` record per batch; [`ClientSession`]
/// expands it. For two interleaved flows that evict continuously, what the
/// client hands its consumer is exactly the call sequence the per-payload
/// sinks of an in-process [`PipelinedStream`] see — every control ahead of
/// the payload it guards — and the totals still count payloads and updates.
#[test]
fn client_side_expansion_matches_the_in_process_per_payload_sinks() {
    // ~100 (or ~70) bases through 64 identifiers, a ragged last batch.
    let churning = |distinct, repeats| {
        let workload = ChurnWorkload::new(ChurnWorkloadConfig {
            distinct,
            repeats,
            chunk_len: CHUNK,
        });
        workload.bytes()[..203 * CHUNK].to_vec()
    };
    let flows = vec![
        (FlowKey::new(5, 0), churning(120, 2)),
        (FlowKey::new(6, 0), churning(80, 3)),
    ];
    let server = bind(None);
    let (streams, _) = multiplexed_run(server.endpoint(), &flows);
    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let (mut payloads, mut controls) = (0u64, 0u64);
    for (key, bytes) in &flows {
        let mut host = host(None);
        host.pipeline_depth = Some(2);
        let engine = host.engine_builder().build().expect("engine builds");
        let seen = RefCell::new(Vec::new());
        let mut stream = PipelinedStream::with_control_sink(
            engine,
            host.batch_chunks,
            |pt, bytes: &[u8]| {
                seen.borrow_mut()
                    .push(Entry::Payload(None, pt, bytes.to_vec()))
            },
            Some(|update: &DictionaryUpdate| {
                seen.borrow_mut().push(Entry::Control(update.clone()))
            }),
        )
        .expect("stream builds");
        for chunk in bytes.chunks(CHUNK) {
            stream.push_record(chunk).expect("push succeeds");
        }
        stream.finish().expect("finish succeeds");
        let reference = seen.into_inner();
        assert_eq!(
            streams[key], reference,
            "{key} diverged from its in-process stream"
        );
        controls += reference
            .iter()
            .filter(|e| matches!(e, Entry::Control(_)))
            .count() as u64;
        payloads += reference.len() as u64;
    }
    payloads -= controls;
    assert!(controls > 2 * 64, "the flows evict: {controls} updates");
    assert_eq!(
        (report.stats.payloads_out, report.stats.controls_out),
        (payloads, controls),
        "the counters count payloads and updates, not records"
    );
}

#[test]
fn killed_durable_multiplexed_server_resumes_every_flow_bit_identically() {
    let flows = flows();
    let pre_chunks = 24usize;

    // Ground truth: the same flows against a durable server that never dies.
    let ref_root = temp_root("ref");
    let ref_server = bind(Some(ref_root.clone()));
    let (reference, _) = multiplexed_run(ref_server.endpoint(), &flows);
    drop(ref_server.shutdown());
    assert!(
        reference
            .values()
            .flatten()
            .any(|e| matches!(e, Entry::Control(_))),
        "the workload must churn the dictionaries"
    );

    // Incarnation 1: interleave the pre-crash chunks, never end anything,
    // kill the server once responses have landed for every flow.
    let crash_root = temp_root("crash");
    let server_a = bind(Some(crash_root.clone()));
    let mut client1 = ClientSession::connect(server_a.endpoint()).expect("connects");
    client1.hello_multiplex().expect("hello answered");
    for (key, _) in &flows {
        client1.open_flow(*key, 0).expect("open sent");
    }
    let mut received: BTreeMap<FlowKey, Vec<Entry>> = BTreeMap::new();
    for round in 0..pre_chunks {
        for (key, bytes) in &flows {
            let chunk = &bytes[round * CHUNK..(round + 1) * CHUNK];
            client1.send_flow_data(*key, chunk).expect("data sent");
            while let Some(event) = client1.try_event() {
                if let Some((key, entry)) = flow_entry(&event) {
                    received.entry(key).or_default().push(entry);
                }
            }
        }
    }
    while received.len() < flows.len() || received.values().any(|entries| entries.len() < 4) {
        match client1.next_event() {
            Some(event) => {
                if let Some((key, entry)) = flow_entry(&event) {
                    received.entry(key).or_default().push(entry);
                }
            }
            None => panic!("server hung up before the staged crash"),
        }
    }
    server_a.abort();
    // Only complete records count; the torn tail is dropped by the reader —
    // exactly the client's view of a real crash.
    for event in client1.close() {
        if let Some((key, entry)) = flow_entry(&event) {
            received.entry(key).or_default().push(entry);
        }
    }
    for (key, _) in &flows {
        assert!(
            flow_dir(&crash_root, *key).exists(),
            "{key} journaled under its tenant-scoped directory"
        );
    }

    // Incarnation 2: restart over the same root, reopen every flow with its
    // replay cursor, resume each at the server-named offset.
    let server_b = bind(Some(crash_root.clone()));
    let mut client2 = ClientSession::connect(server_b.endpoint()).expect("connects");
    client2.hello_multiplex().expect("hello answered");
    for (key, _) in &flows {
        let held = received.get(key).map_or(0, |entries| entries.len() as u64);
        client2.open_flow(*key, held).expect("open sent");
    }
    // The OPENED answers arrive in order, strictly before each flow's
    // replayed records; collect the resume offsets as they appear.
    let mut resume: BTreeMap<FlowKey, u64> = BTreeMap::new();
    while resume.len() < flows.len() {
        match client2.next_event() {
            Some(ServerEvent::FlowOpened { key, resume: hello }) => {
                assert!(hello.warm, "restart must restore the durable store");
                assert_eq!(
                    hello.resume_bytes_in % (CHUNK as u64),
                    0,
                    "commits cut at whole-chunk boundaries"
                );
                resume.insert(key, hello.resume_bytes_in);
            }
            Some(event) => {
                if let Some((key, entry)) = flow_entry(&event) {
                    assert!(
                        resume.contains_key(&key),
                        "{key} replayed records before its OPENED"
                    );
                    received.entry(key).or_default().push(entry);
                }
            }
            None => panic!("server hung up during resume"),
        }
    }
    for (key, bytes) in &flows {
        for chunk in bytes[resume[key] as usize..].chunks(CHUNK) {
            client2.send_flow_data(*key, chunk).expect("data sent");
            while let Some(event) = client2.try_event() {
                if let Some((key, entry)) = flow_entry(&event) {
                    received.entry(key).or_default().push(entry);
                }
            }
        }
    }
    for (key, _) in &flows {
        client2.end_flow(*key).expect("end sent");
    }
    client2.end().expect("end sent");
    client2
        .drain_to_done(|event| {
            if let Some((key, entry)) = flow_entry(&event) {
                received.entry(key).or_default().push(entry);
            }
        })
        .expect("clean finish");
    let report = server_b.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // The acceptance property, per flow: pre-crash + replayed + resumed
    // records, concatenated, are bit-identical to the uninterrupted run.
    for (key, _) in &flows {
        assert_eq!(
            received[key], reference[key],
            "{key} diverged from the uninterrupted multiplexed run"
        );
    }

    let _ = std::fs::remove_dir_all(&ref_root);
    let _ = std::fs::remove_dir_all(&crash_root);
}

/// Wire v5 is the only version: a hello of version 1, 2, 3, 4 or 6 —
/// whatever body shape that version gave it — is answered with a typed `ERROR`
/// record naming the version the server speaks, then the connection
/// closes with no stream state created.
#[test]
fn hellos_of_any_other_version_get_a_typed_error_naming_the_supported_one() {
    let server = bind(None);
    let addr = server
        .endpoint()
        .to_string()
        .trim_start_matches("tcp://")
        .to_string();
    let crc_engine = CrcEngine::new(CrcSpec::new(32, 0x04C1_1DB7).expect("valid CRC spec"));

    let stale_versions = [1u16, 2, 3, 4, WIRE_VERSION + 1];
    assert_eq!(WIRE_VERSION, 5);
    for version in stale_versions {
        let mut socket = std::net::TcpStream::connect(&addr).expect("connects");
        // Hand-craft the CLIENT_HELLO frame: magic + version, then the
        // stream id + cursor (+ multiplex flag from v2 on) older versions
        // carried — the refusal must not depend on what follows the version.
        let mut body = vec![0x41u8]; // KIND_CLIENT_HELLO
        body.extend_from_slice(&REQUEST_MAGIC);
        body.extend_from_slice(&version.to_le_bytes());
        body.extend_from_slice(&0x77u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        if version >= 2 {
            body.push(0);
        }
        let crc = crc_engine.compute_bytes(&body) as u32;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());
        socket.write_all(&frame).expect("frame sent");
        socket.flush().expect("flushed");

        let mut reader = RecordReader::new(socket);
        let record = reader
            .read_record()
            .expect("the rejection is a well-formed record")
            .expect("the server answers before closing");
        match record {
            Record::Error(message) => assert!(
                message.contains(&format!("unsupported wire version {version}"))
                    && message.contains(&format!("only version {WIRE_VERSION}")),
                "the rejection must name both versions, got: {message}"
            ),
            other => panic!("expected an ERROR record, got {}", other.kind_name()),
        }
        assert!(
            matches!(reader.read_record(), Ok(None)),
            "the connection closes after the refusal"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.stats.streams_completed, 0);
    assert_eq!(report.stats.failed_streams, stale_versions.len() as u64);
}
