//! Property-test suite for the multi-tenant flow router (ISSUE 9
//! acceptance): N flows interleaved through **one** [`FlowRouter`] produce,
//! per flow, batches that expand to exactly the event stream of N
//! **isolated** single-tenant pipelined engines — for arbitrary shard/worker/spawn shapes, batch
//! sizes, push slicings and churn-heavy data (the tiny 6-bit dictionary
//! evicts constantly), with the in-band control frames preserved in
//! strictly-before-the-data order. A [`FlowDecoderPool`] driven by the
//! interleaved stream restores every flow bit-identically.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;
use zipline_engine::{
    BatchEvent, DictionaryUpdate, EngineBuilder, EngineConfig, FlowBatch, FlowDecoderPool, FlowKey,
    FlowRouter, FlowRouterConfig, PipelinedStream, SpawnPolicy,
};
use zipline_gd::config::GdConfig;
use zipline_gd::packet::PacketType;

/// Small parameters so shards see churn and evictions: m = 3 (1-byte
/// chunks), 6-bit identifiers (64 total, 16 per shard at 4 shards).
fn small_gd() -> GdConfig {
    GdConfig::for_parameters(3, 6).unwrap()
}

fn spawn_of(selector: u8) -> SpawnPolicy {
    match selector % 3 {
        0 => SpawnPolicy::Auto,
        1 => SpawnPolicy::Inline,
        _ => SpawnPolicy::Threads,
    }
}

/// One element of a flow's wire, with the tag stripped: a control update or
/// a payload, in emission order.
#[derive(Debug, Clone, PartialEq)]
enum RefEvent {
    Control(DictionaryUpdate),
    Payload(PacketType, Vec<u8>),
}

/// Runs `data` through one dedicated single-tenant pipelined engine — the
/// isolated reference a multiplexed flow must be indistinguishable from.
fn isolated_events(config: EngineConfig, batch_units: usize, data: &[u8]) -> Vec<RefEvent> {
    let engine = EngineBuilder::new()
        .config(config)
        .pipelined(2)
        .build()
        .expect("valid engine config");
    let events: Rc<RefCell<Vec<RefEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = {
        let events = Rc::clone(&events);
        move |pt: PacketType, bytes: &[u8]| {
            events
                .borrow_mut()
                .push(RefEvent::Payload(pt, bytes.to_vec()));
        }
    };
    let control_sink = {
        let events = Rc::clone(&events);
        move |update: &DictionaryUpdate| {
            events.borrow_mut().push(RefEvent::Control(update.clone()));
        }
    };
    let mut stream =
        PipelinedStream::with_control_sink(engine, batch_units, sink, Some(control_sink))
            .expect("pipelined engine");
    stream.push_record(data).expect("push succeeds");
    stream.finish().expect("finish succeeds");
    Rc::try_unwrap(events)
        .expect("sinks dropped with the stream")
        .into_inner()
}

/// Expands one tagged batch into the flow's untagged events, wire order.
fn untag(flow: &FlowBatch) -> impl Iterator<Item = RefEvent> + '_ {
    flow.batch.events().map(|event| match event {
        BatchEvent::Update(update) => RefEvent::Control(update.clone()),
        BatchEvent::Payload(packet_type, bytes) => RefEvent::Payload(packet_type, bytes.to_vec()),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The per-flow bit-identity criterion: route N interleaved flows
    /// through one router, compare each flow's tagged event stream to its
    /// isolated single-tenant reference, and restore every flow through one
    /// decoder pool fed the raw interleaving.
    #[test]
    fn interleaved_flows_are_bit_identical_to_isolated_engines(
        datas in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..400), 2..5),
        shard_exp in 0u32..3,
        workers in 1usize..4,
        spawn_selector in any::<u8>(),
        batch_units in 1usize..9,
        step in 1usize..48,
    ) {
        let engine = EngineConfig {
            gd: small_gd(),
            shards: 1usize << shard_exp,
            workers,
            spawn: spawn_of(spawn_selector),
        };
        let mut config = FlowRouterConfig::new(engine);
        config.batch_units = batch_units;
        let mut router: FlowRouter = FlowRouter::new(config).expect("valid router config");

        // Spread the flows across two tenants so tenant isolation is in
        // play, not just flow isolation.
        let keys: Vec<FlowKey> = (0..datas.len())
            .map(|i| FlowKey::new(1 + (i % 2) as u64, i as u64))
            .collect();
        for &key in &keys {
            router.open_flow(key, 0).expect("cold open");
        }

        // Interleave pushes round-robin in `step`-byte slices, draining the
        // tagged emissions as they appear.
        let mut tagged: Vec<FlowBatch> = Vec::new();
        let mut offsets = vec![0usize; datas.len()];
        loop {
            let mut pushed = false;
            for (i, data) in datas.iter().enumerate() {
                let at = offsets[i];
                if at < data.len() {
                    let end = (at + step).min(data.len());
                    router.push(keys[i], &data[at..end]).expect("push succeeds");
                    offsets[i] = end;
                    pushed = true;
                    tagged.extend(router.drain_events());
                }
            }
            if !pushed {
                break;
            }
        }
        for &key in &keys {
            router.end_flow(key).expect("finish succeeds");
            tagged.extend(router.drain_events());
        }

        // Per flow, the tagged subsequence equals the isolated reference.
        let mut per_flow: BTreeMap<FlowKey, Vec<RefEvent>> = BTreeMap::new();
        for flow in &tagged {
            per_flow.entry(flow.key).or_default().extend(untag(flow));
        }
        for (i, data) in datas.iter().enumerate() {
            let reference = isolated_events(engine, batch_units, data);
            let observed = per_flow.remove(&keys[i]).unwrap_or_default();
            prop_assert_eq!(
                observed,
                reference,
                "flow {} diverged from its isolated engine",
                keys[i]
            );
        }
        prop_assert!(per_flow.is_empty(), "events appeared for unknown flows");

        // One decoder pool fed the raw interleaving restores every flow.
        let mut pool = FlowDecoderPool::new(engine);
        let mut restored: BTreeMap<FlowKey, Vec<u8>> = BTreeMap::new();
        for &key in &keys {
            pool.open(key).expect("pool open");
            restored.insert(key, Vec::new());
        }
        for flow in &tagged {
            let out = restored.get_mut(&flow.key).expect("known flow");
            pool.decode_batch(flow, out).expect("decode succeeds");
        }
        for (i, data) in datas.iter().enumerate() {
            prop_assert_eq!(
                &restored[&keys[i]],
                data,
                "flow {} did not restore bit-identically",
                keys[i]
            );
        }
    }
}
