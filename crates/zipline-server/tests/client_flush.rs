//! When a [`ClientSession`]'s buffered records reach the server, seen from
//! outside a socket: a burst leaves at the first empty poll after a quiet
//! spell, [`ClientSession::flush`] alone delivers, a record far larger than
//! the out-buffer goes out whole, and a write that fails in a poll is
//! returned by the next send.

use std::time::{Duration, Instant};

use zipline::host::HostPathConfig;
use zipline_engine::{EngineConfig, RegistryDecompressor, SpawnPolicy, CODEC_GD};
use zipline_gd::GdConfig;
use zipline_server::{ClientSession, ServerConfigBuilder, ServerEvent, ServerHandle};

const CHUNK: usize = 32;
const BATCH_CHUNKS: usize = 32;

/// In-memory, inline engine: a batch comes back as soon as its last chunk
/// is pushed.
fn host() -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid GD parameters"),
            shards: 4,
            workers: 2,
            spawn: SpawnPolicy::Inline,
        },
        batch_chunks: BATCH_CHUNKS,
        ..HostPathConfig::paper_default()
    }
}

fn bind() -> ServerHandle {
    let config = ServerConfigBuilder::new()
        .host(host())
        .build()
        .expect("valid server config");
    ServerHandle::bind_tcp("127.0.0.1:0", config).expect("server binds")
}

/// `len` bytes with a few chunk bases and sparse deviations, so GD has both
/// references and first occurrences to code.
fn data(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let chunk = i / CHUNK;
            let base = (chunk % 7) as u8;
            match i % CHUNK {
                0 => base,
                9 if chunk.is_multiple_of(5) => 0x40 ^ (chunk as u8),
                j => base.wrapping_mul(31).wrapping_add(j as u8),
            }
        })
        .collect()
}

#[test]
fn a_batch_after_a_quiet_spell_comes_back_on_polls_alone() {
    let server = bind();
    let mut session = ClientSession::connect(server.endpoint()).expect("connects");
    session.hello(1, 0).expect("hello answered");
    std::thread::sleep(Duration::from_millis(5));

    let batch = data(BATCH_CHUNKS * CHUNK);
    for chunk in batch.chunks(CHUNK) {
        session.send_data(chunk).expect("data sent");
    }
    // Only polls from here: no blocking call, no END, no explicit flush.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut payloads = 0;
    while payloads < BATCH_CHUNKS && Instant::now() < deadline {
        match session.try_event() {
            Some(ServerEvent::Payload { .. }) => payloads += 1,
            Some(ServerEvent::Control(_)) => {}
            Some(other) => panic!("unexpected event {other:?}"),
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    assert_eq!(payloads, BATCH_CHUNKS, "the batch came back on polls");

    session.end().expect("end sent");
    let done = session.drain_to_done(|_| {}).expect("clean finish");
    assert_eq!(done.bytes_in, batch.len() as u64);
    drop(server.shutdown());
}

#[test]
fn flush_alone_gets_every_byte_to_the_server() {
    let server = bind();
    let mut session = ClientSession::connect(server.endpoint()).expect("connects");
    session.hello(2, 0).expect("hello answered");
    let input = data(40 * CHUNK);
    for chunk in input.chunks(CHUNK) {
        session.send_data(chunk).expect("data sent");
    }
    session.flush().expect("buffered records written");
    // No other client call until the server has stopped and counted.
    std::thread::sleep(Duration::from_millis(300));
    let report = server.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.stats.records_in, 40,
        "every record reached the server"
    );
    assert_eq!(report.stats.bytes_in, input.len() as u64);

    let done = session
        .drain_to_done(|_| {})
        .expect("server-initiated finish still ends in DONE");
    assert!(done.server_initiated);
    assert_eq!(done.bytes_in, input.len() as u64);
}

#[test]
fn a_one_mebibyte_record_round_trips_bit_identically() {
    let server = bind();
    let mut session = ClientSession::connect(server.endpoint()).expect("connects");
    session.hello(3, 0).expect("hello answered");
    let small = data(3 * CHUNK);
    let large = data(1 << 20);
    // Buffered DATA ahead of the large record, so the two go in order.
    session.send_data(&small).expect("small record sent");
    session.send_data(&large).expect("large record sent");
    session.end().expect("end sent");

    let mut decoder = RegistryDecompressor::new(host().engine, CODEC_GD).expect("decoder builds");
    let mut restored = Vec::new();
    let done = session
        .drain_to_done(|event| match event {
            ServerEvent::Control(update) => decoder.apply_update(&update).expect("update applies"),
            ServerEvent::Payload {
                packet_type,
                codec,
                bytes,
            } => decoder
                .restore_payload_tagged(codec, packet_type, &bytes, &mut restored)
                .expect("payload decodes"),
            other => panic!("unexpected event {other:?}"),
        })
        .expect("clean finish");
    assert_eq!(done.bytes_in, (small.len() + large.len()) as u64);
    let input: Vec<u8> = small.iter().chain(&large).copied().collect();
    assert!(restored == input, "restored bytes differ from the input");
    drop(server.shutdown());
}

#[test]
fn a_write_that_fails_in_a_poll_is_returned_by_the_next_send() {
    let server = bind();
    let mut session = ClientSession::connect(server.endpoint()).expect("connects");
    session.hello(4, 0).expect("hello answered");
    drop(server.abort());

    // The first writes into the dead connection may still be accepted by
    // the kernel; a later one fails inside `try_event`, which reports the
    // closed connection as `None` and keeps the error for the next send.
    let chunk = data(CHUNK);
    let failed = (0..200).find_map(|_| {
        if let Err(e) = session.send_data(&chunk) {
            return Some(e);
        }
        std::thread::sleep(Duration::from_millis(2));
        assert!(session.try_event().is_none(), "no events after the abort");
        None
    });
    let failed = failed.expect("a send reports the failed write");
    assert!(
        failed.to_string().contains("sending buffered records"),
        "unexpected error: {failed}"
    );
}
