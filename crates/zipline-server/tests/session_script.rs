//! The session state machine, driven without a socket: scripted record
//! sequences go straight into [`Session::handle`] and the frames that come
//! back are decoded and checked. Covers what the socket suites cannot reach
//! deterministically — every protocol-order violation as a typed error, the
//! per-flow ordering of interleaved emissions, and the graceful-stop drain
//! order.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use zipline::host::HostPathConfig;
use zipline_engine::{
    AutoBackend, BatchEvent, CodecCursor, CodecId, CompressionBackend, DictionaryUpdate,
    EngineConfig, FlowBatch, GdBackend, PipelinedStream, SpawnPolicy,
};
use zipline_gd::packet::PacketType;
use zipline_gd::GdConfig;
use zipline_server::{
    ClientHello, FlowDecoderPool, FlowKey, Record, ServerError, Session, SessionRegistry, WireCodec,
};
use zipline_traces::{ChunkWorkload, ChurnWorkload, ChurnWorkloadConfig};

const CHUNK: usize = 32;

/// Churn-heavy inline host shape: 64-identifier dictionary, 8-chunk
/// batches, no worker threads anywhere below the session.
fn host() -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid GD parameters"),
            shards: 4,
            workers: 1,
            spawn: SpawnPolicy::Inline,
        },
        batch_chunks: 8,
        ..HostPathConfig::paper_default()
    }
}

fn session(registry: &Arc<SessionRegistry>) -> Session<GdBackend> {
    Session::new(&host(), Arc::clone(registry)).expect("session builds")
}

/// A session past its hello exchange.
fn greeted<B: CompressionBackend + Send + 'static>(registry: &Arc<SessionRegistry>) -> Session<B> {
    let mut session = Session::new(&host(), Arc::clone(registry)).expect("session builds");
    run(&mut session, [Record::ClientHello(ClientHello::default())]).expect("hello accepted");
    session
}

/// Feeds `script` in order, returning every record the session answered
/// with, or the first error.
fn run<B: CompressionBackend + Send + 'static>(
    session: &mut Session<B>,
    script: impl IntoIterator<Item = Record>,
) -> Result<Vec<Record>, ServerError> {
    let mut frames = Vec::new();
    for record in script {
        session.handle(record, &mut frames)?;
    }
    Ok(decode(&frames))
}

/// Splits the session's output — framed records back to back — into
/// records.
fn decode(mut frames: &[u8]) -> Vec<Record> {
    let codec = WireCodec::new();
    let mut records = Vec::new();
    while !frames.is_empty() {
        let (record, used) = codec
            .decode(frames)
            .expect("the session emits valid frames")
            .expect("and only whole ones");
        records.push(record);
        frames = &frames[used..];
    }
    records
}

/// Asserts `result` is a protocol violation whose message names `needle`.
fn assert_protocol_error(result: Result<Vec<Record>, ServerError>, needle: &str) {
    match result {
        Err(ServerError::Protocol(message)) => assert!(
            message.contains(needle),
            "expected a violation naming {needle:?}, got: {message}"
        ),
        other => panic!("expected ServerError::Protocol naming {needle:?}, got {other:?}"),
    }
}

fn open(key: FlowKey) -> Record {
    Record::Open {
        key,
        entries_held: 0,
    }
}

/// Mostly-distinct chunks, disjoint per seed, so the 64-entry dictionary
/// installs and evicts continuously.
fn flow_chunks(seed: u64, chunks: usize) -> Vec<Vec<u8>> {
    (0..chunks as u64)
        .map(|i| {
            (0..CHUNK as u64)
                .map(|j| {
                    let word = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i.wrapping_mul(31))
                        .wrapping_add(j.wrapping_mul(7));
                    (word >> 16) as u8
                })
                .collect()
        })
        .collect()
}

#[test]
fn records_out_of_protocol_order_are_typed_errors() {
    let registry = Arc::new(SessionRegistry::default());
    let key = FlowKey::new(3, 9);
    let data = || Record::Data {
        key,
        bytes: vec![1; CHUNK],
    };

    // Anything before the hello.
    for early in [open(key), data(), Record::EndFlow { key }, Record::End] {
        assert_protocol_error(
            run(&mut session(&registry), [early]),
            "expected CLIENT_HELLO",
        );
    }
    // A second hello.
    assert_protocol_error(
        run(
            &mut greeted::<GdBackend>(&registry),
            [Record::ClientHello(ClientHello::default())],
        ),
        "unexpected CLIENT_HELLO",
    );
    // A server-side record from the client.
    assert_protocol_error(
        run(
            &mut greeted::<GdBackend>(&registry),
            [Record::Error("hi".into())],
        ),
        "unexpected ERROR",
    );
    // OPEN of a flow this session already holds.
    assert_protocol_error(
        run(&mut greeted::<GdBackend>(&registry), [open(key), open(key)]),
        "already active",
    );
    // DATA and END_FLOW for a flow that was never opened — or was already
    // ended.
    assert_protocol_error(
        run(&mut greeted::<GdBackend>(&registry), [data()]),
        "not active",
    );
    assert_protocol_error(
        run(
            &mut greeted::<GdBackend>(&registry),
            [Record::EndFlow { key }],
        ),
        "not active",
    );
    assert_protocol_error(
        run(
            &mut greeted::<GdBackend>(&registry),
            [open(key), Record::EndFlow { key }, data()],
        ),
        "not active",
    );
    // Anything after END.
    for late in [open(key), data(), Record::End] {
        let mut session = greeted::<GdBackend>(&registry);
        let answered = run(&mut session, [Record::End]).expect("END accepted");
        assert!(matches!(answered.as_slice(), [Record::Done(_)]));
        assert!(session.is_ended());
        assert_protocol_error(run(&mut session, [late]), "after END");
    }
    // Every session above is gone, and took its claims with it.
    run(&mut greeted::<GdBackend>(&registry), [open(key)]).expect("the key is free again");
    assert_eq!(
        registry.stats().streams_completed,
        1,
        "only the one END_FLOW above finished a flow"
    );
}

#[test]
fn a_flow_key_has_one_owner_at_a_time_across_sessions() {
    let registry = Arc::new(SessionRegistry::default());
    let key = FlowKey::new(0, 0xD);
    let mut first = greeted::<GdBackend>(&registry);
    run(&mut first, [open(key)]).expect("first claim");

    assert_protocol_error(
        run(&mut greeted::<GdBackend>(&registry), [open(key)]),
        "already being served on another connection",
    );
    // A different key on the same tenant is nobody's business.
    run(
        &mut greeted::<GdBackend>(&registry),
        [open(FlowKey::new(0, 0xE))],
    )
    .expect("disjoint key opens");

    // Ending the flow releases it while its session lives on…
    run(&mut first, [Record::EndFlow { key }]).expect("flow ends");
    let mut second = greeted::<GdBackend>(&registry);
    run(&mut second, [open(key)]).expect("released key is claimable");
    // …and so does dropping a session mid-flow (a dead connection).
    drop(second);
    run(&mut first, [open(key)]).expect("abandoned key is claimable");
}

#[test]
fn interleaved_flows_keep_per_flow_order_with_controls_ahead_of_their_payloads() {
    let registry = Arc::new(SessionRegistry::default());
    let flows = [
        (FlowKey::new(1, 0), flow_chunks(0xA11CE, 40)),
        (FlowKey::new(1, 1), flow_chunks(0xB0B, 40)),
    ];

    // Each flow alone, on a session of its own: the per-flow reference.
    let alone: BTreeMap<FlowKey, Vec<Record>> = flows
        .iter()
        .map(|(key, chunks)| {
            let mut script = vec![open(*key)];
            script.extend(chunks.iter().map(|bytes| Record::Data {
                key: *key,
                bytes: bytes.clone(),
            }));
            script.push(Record::EndFlow { key: *key });
            let answered = run(&mut greeted::<GdBackend>(&registry), script).expect("solo run");
            (*key, answered)
        })
        .collect();

    // Both flows chunk-interleaved on one session.
    let mut script: Vec<Record> = flows.iter().map(|(key, _)| open(*key)).collect();
    for round in 0..40 {
        for (key, chunks) in &flows {
            script.push(Record::Data {
                key: *key,
                bytes: chunks[round].clone(),
            });
        }
    }
    script.extend(flows.iter().map(|(key, _)| Record::EndFlow { key: *key }));
    let answered = run(&mut greeted::<GdBackend>(&registry), script).expect("interleaved run");

    let mut pool = FlowDecoderPool::new(host().engine);
    let mut restored: BTreeMap<FlowKey, Vec<u8>> = BTreeMap::new();
    let mut per_flow: BTreeMap<FlowKey, Vec<Record>> = BTreeMap::new();
    let mut controls = 0usize;
    for record in answered {
        // Decoding in arrival order is the ordering proof: the pool rejects
        // a control below its flow's cursor, and a payload whose basis has
        // not been installed yet does not decode.
        let key = match &record {
            Record::Opened { key, .. } => {
                pool.open(*key).expect("decoder opens");
                *key
            }
            Record::Payload { key, batch } => {
                assert_eq!(batch.codec(), None, "a fixed backend writes codec byte 0");
                controls += batch.updates().len();
                let flow = FlowBatch {
                    key: *key,
                    batch: batch.clone(),
                };
                pool.decode_batch(&flow, restored.entry(*key).or_default())
                    .expect("controls in order, every basis installed before its payload");
                *key
            }
            Record::FlowDone { key, summary } => {
                assert!(!summary.server_initiated, "the client ended {key}");
                *key
            }
            other => panic!("unexpected record {other:?}"),
        };
        per_flow.entry(key).or_default().push(record);
    }
    assert!(controls > 0, "the workload churns the dictionaries");
    for (key, chunks) in &flows {
        assert_eq!(restored[key], chunks.concat(), "{key} restores losslessly");
        assert_eq!(
            per_flow[key], alone[key],
            "{key}: interleaving changed the flow's own record sequence"
        );
    }
}

/// The first `chunks` chunks of a stream that really churns the 64-entry
/// dictionary: `distinct` bases, each `repeats` times in a row.
fn churning_chunks(distinct: u32, repeats: u32, chunks: usize) -> Vec<Vec<u8>> {
    let workload = ChurnWorkload::new(ChurnWorkloadConfig {
        distinct,
        repeats,
        chunk_len: CHUNK,
    });
    workload.chunks().take(chunks).collect()
}

/// One event of a flow's stream as a per-payload consumer sees it.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Control(DictionaryUpdate),
    Payload(Option<CodecId>, PacketType, Vec<u8>),
}

/// `chunks` through an in-process [`PipelinedStream`] shaped like the
/// session's flows, observed through its per-payload sinks.
fn in_process<B: CompressionBackend + Send + 'static>(chunks: &[Vec<u8>]) -> Vec<Seen> {
    let host = host();
    let backend = B::from_engine_config(&host.engine).expect("backend builds");
    let engine = host
        .engine_builder()
        .backend(backend)
        .pipelined(2)
        .build()
        .expect("engine builds");
    let seen = RefCell::new(Vec::new());
    let cursor = CodecCursor::new();
    let mut stream = PipelinedStream::with_control_sink(
        engine,
        host.batch_chunks,
        |packet_type, bytes: &[u8]| {
            seen.borrow_mut()
                .push(Seen::Payload(cursor.get(), packet_type, bytes.to_vec()))
        },
        Some(|update: &DictionaryUpdate| seen.borrow_mut().push(Seen::Control(update.clone()))),
    )
    .expect("stream builds");
    stream.set_codec_cursor(cursor.clone());
    for chunk in chunks {
        stream.push_record(chunk).expect("push succeeds");
    }
    stream.finish().expect("finish succeeds");
    seen.into_inner()
}

/// Two churning flows interleaved on one session: each flow's `PAYLOAD`
/// records, expanded, are exactly the event sequence the per-payload sinks
/// of an in-process stream produce — every control ahead of the payload it
/// guards, the codec tag on every payload of a tagged batch — and the
/// `FLOW_DONE`/`DONE` totals and the server counters count payloads and
/// updates, not records.
fn interleaved_flows_expand_to_the_in_process_sequence<B>(tagged: bool)
where
    B: CompressionBackend + Send + 'static,
{
    let registry = Arc::new(SessionRegistry::default());
    // 203 chunks: a ragged last batch, and ~100 (or ~70) bases through 64
    // identifiers.
    let flows = [
        (FlowKey::new(4, 0), churning_chunks(120, 2, 203)),
        (FlowKey::new(4, 1), churning_chunks(80, 3, 203)),
    ];
    let mut script: Vec<Record> = flows.iter().map(|(key, _)| open(*key)).collect();
    for round in 0..203 {
        for (key, chunks) in &flows {
            script.push(Record::Data {
                key: *key,
                bytes: chunks[round].clone(),
            });
        }
    }
    script.push(Record::End);
    let answered = run(&mut greeted::<B>(&registry), script).expect("interleaved run");

    let mut expanded: BTreeMap<FlowKey, Vec<Seen>> = BTreeMap::new();
    let mut records = 0u64;
    for record in &answered {
        match record {
            Record::Payload { key, batch } => {
                records += 1;
                assert_eq!(batch.codec().is_some(), tagged);
                expanded
                    .entry(*key)
                    .or_default()
                    .extend(batch.events().map(|event| match event {
                        BatchEvent::Update(update) => Seen::Control(update.clone()),
                        BatchEvent::Payload(packet_type, bytes) => {
                            Seen::Payload(batch.codec(), packet_type, bytes.to_vec())
                        }
                    }));
            }
            Record::FlowDone { key, summary } => {
                let seen = &expanded[key];
                let payloads = seen.iter().filter(|e| matches!(e, Seen::Payload(..)));
                assert_eq!(summary.payloads_emitted, payloads.clone().count() as u64);
                assert_eq!(
                    summary.wire_bytes,
                    payloads
                        .map(|e| match e {
                            Seen::Payload(_, _, bytes) => bytes.len() as u64,
                            Seen::Control(_) => 0,
                        })
                        .sum::<u64>(),
                    "wire_bytes counts payload bytes only"
                );
                assert_eq!(
                    summary.control_updates,
                    (seen.len() as u64) - summary.payloads_emitted
                );
            }
            _ => {}
        }
    }
    let mut controls = 0u64;
    let mut payloads = 0u64;
    for (key, chunks) in &flows {
        let reference = in_process::<B>(chunks);
        assert_eq!(
            expanded[key], reference,
            "{key} diverged from its in-process stream"
        );
        controls += reference
            .iter()
            .filter(|e| matches!(e, Seen::Control(_)))
            .count() as u64;
        payloads += reference
            .iter()
            .filter(|e| matches!(e, Seen::Payload(..)))
            .count() as u64;
    }
    if tagged {
        // The router sends these zero-heavy chunks mostly to deflate: one
        // payload per batch, and only its GD probes touch the dictionary.
        assert!(controls > 0 && records <= payloads);
    } else {
        assert!(
            controls > 2 * 64,
            "the workload evicts: {controls} updates through 64 identifiers"
        );
        assert!(
            records * 4 <= payloads,
            "{records} records for {payloads} payloads: the batch is the record"
        );
    }
    match answered.last() {
        Some(Record::Done(totals)) => {
            assert_eq!(totals.payloads_emitted, payloads);
            assert_eq!(totals.control_updates, controls);
        }
        other => panic!("the session must close with DONE, got {other:?}"),
    }
    let stats = registry.stats();
    assert_eq!(
        (stats.payloads_out, stats.controls_out),
        (payloads, controls)
    );
}

#[test]
fn interleaved_gd_flows_expand_to_the_in_process_sequence() {
    interleaved_flows_expand_to_the_in_process_sequence::<GdBackend>(false);
}

#[test]
fn interleaved_auto_flows_carry_their_codec_tag_on_every_payload() {
    interleaved_flows_expand_to_the_in_process_sequence::<AutoBackend>(true);
}

#[test]
fn a_graceful_stop_finishes_open_flows_in_sorted_key_order() {
    let registry = Arc::new(SessionRegistry::default());

    // Before the hello there is nothing to finish and nothing to say.
    let mut silent = session(&registry);
    let mut frames = Vec::new();
    silent.stop(&mut frames).expect("stop before hello");
    assert!(frames.is_empty() && silent.is_ended());

    // Opened out of order; one ended by the client, three left open with a
    // partial batch buffered.
    let keys = [
        FlowKey::new(2, 0),
        FlowKey::new(1, 7),
        FlowKey::new(1, 2),
        FlowKey::new(0, 5),
    ];
    let mut session = greeted::<GdBackend>(&registry);
    let mut script: Vec<Record> = keys.iter().map(|key| open(*key)).collect();
    for (i, key) in keys.iter().enumerate() {
        for bytes in flow_chunks(i as u64, 3 + i) {
            script.push(Record::Data { key: *key, bytes });
        }
    }
    script.push(Record::EndFlow { key: keys[1] });
    run(&mut session, script).expect("script accepted");
    assert!(!session.is_ended());

    let mut frames = Vec::new();
    session.stop(&mut frames).expect("graceful stop");
    assert!(session.is_ended());
    let answered = decode(&frames);

    let finished: Vec<FlowKey> = answered
        .iter()
        .filter_map(|record| match record {
            Record::FlowDone { key, summary } => {
                assert!(summary.server_initiated, "{key} was finished by the server");
                Some(*key)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        finished,
        [FlowKey::new(0, 5), FlowKey::new(1, 2), FlowKey::new(2, 0)],
        "open flows drain in sorted (tenant, flow) order"
    );
    // Each flow's tail is flushed before its FLOW_DONE and after the
    // previous flow's: records never straddle a FLOW_DONE of their own key.
    let mut done = Vec::new();
    for record in &answered {
        match record {
            Record::Payload { key, .. } => {
                assert!(!done.contains(key), "{key} emitted after its FLOW_DONE")
            }
            Record::FlowDone { key, .. } => done.push(*key),
            _ => {}
        }
    }
    match answered.last() {
        Some(Record::Done(totals)) => {
            assert!(totals.server_initiated, "nobody sent END");
            let sent: usize = (0..keys.len()).map(|i| (3 + i) * CHUNK).sum();
            assert_eq!(totals.bytes_in, sent as u64, "every pushed byte committed");
        }
        other => panic!("the session must close with DONE, got {other:?}"),
    }
    assert_eq!(registry.stats().streams_completed, keys.len() as u64);
}
