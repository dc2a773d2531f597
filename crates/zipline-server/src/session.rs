//! The session state machine: wire records in, framed wire bytes out.
//!
//! A [`Session`] is everything one connection means, with the connection
//! taken away — no socket, no thread, no channel. The server's shell (see
//! [`crate::server`]) reads records off a socket, hands each to
//! [`Session::handle`], and writes whatever bytes come back; tests drive
//! the same machine from a scripted `Vec<Record>`.
//!
//! # Lifecycle
//!
//! 1. `CLIENT_HELLO` — the codec-set check, answered by `SERVER_HELLO`.
//! 2. Any number of flows, interleaved. `OPEN` places a flow onto the
//!    session's [`FlowRouter`] (own engine, own dictionary namespace,
//!    durable under `<root>/tenant-<id>/stream-<id>` when a store root is
//!    configured) and answers `OPENED` with the flow's resume plan,
//!    followed by the journal replay past the client's cursor or, for a
//!    compacted journal, synthesized `RESEED` installs. `DATA` feeds the
//!    flow; whenever it completes an engine batch, the batch comes back as
//!    one keyed `PAYLOAD` record — its payloads, with its control updates
//!    placed strictly before the payloads that need them — framed by one
//!    encode call. `END_FLOW` drains, commits and answers `FLOW_DONE`.
//!
//! On a durable flow a batch reaches the socket only after it is committed
//! (batch record → shard delta → shard flush → commit → frame flush, see
//! `zipline_engine::persist`), and the record's body is the journal's,
//! byte for byte.
//! 3. `END` — or [`Session::stop`], the graceful-shutdown equivalent —
//!    finishes the flows still open in sorted key order and answers with
//!    the session totals in `DONE`.
//!
//! Anything else is a typed [`ServerError::Protocol`]. An error is final:
//! the caller drops the session, which abandons every open flow at its last
//! commit boundary — crash semantics for the durable stores.
//!
//! A classic single-stream client is a session with exactly one flow, the
//! tenant-0 key `(0, stream_id)` — which is where its journal always lived.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zipline::host::HostPathConfig;
use zipline_engine::tenant::{
    replay_batches, FlowBatch, FlowError, FlowKey, FlowRouter, FlowRouterConfig,
};
use zipline_engine::{Batch, CompressionBackend, EngineError, StreamSummary};

use crate::error::{ServerError, ServerResult};
use crate::wire::{ClientHello, DoneSummary, Record, ResumeSummary, ServerHello, WireCodec};

/// Point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Flows that reached `FLOW_DONE`.
    pub streams_completed: u64,
    /// `DATA` records consumed.
    pub records_in: u64,
    /// `DATA` bytes consumed.
    pub bytes_in: u64,
    /// Payloads emitted (replay included), however many records carried
    /// them.
    pub payloads_out: u64,
    /// Control updates + reseed installs emitted (replay included).
    pub controls_out: u64,
    /// Framed bytes put on sockets.
    pub bytes_out: u64,
    /// Journal entries replayed to reconnecting clients.
    pub replayed_entries: u64,
    /// Sessions that ended in an error (aborted sessions excluded).
    pub failed_streams: u64,
}

/// What the sessions of one server share: the monotonic counters they bump
/// and the set of flow keys currently being served, so a flow (and its
/// durable store) has at most one owner at a time.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    pub(crate) connections: AtomicU64,
    streams_completed: AtomicU64,
    records_in: AtomicU64,
    bytes_in: AtomicU64,
    payloads_out: AtomicU64,
    controls_out: AtomicU64,
    bytes_out: AtomicU64,
    replayed_entries: AtomicU64,
    pub(crate) failed_streams: AtomicU64,
    active: Mutex<HashSet<FlowKey>>,
}

/// Locks a mutex, recovering the data even when another thread panicked
/// while holding it. The protected registries (connection list, error log,
/// active-flow set) stay consistent under item-level mutation, so a
/// handler's panic must not wedge shutdown or error reporting for the
/// whole server.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

impl SessionRegistry {
    /// Snapshot of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: read(&self.connections),
            streams_completed: read(&self.streams_completed),
            records_in: read(&self.records_in),
            bytes_in: read(&self.bytes_in),
            payloads_out: read(&self.payloads_out),
            controls_out: read(&self.controls_out),
            bytes_out: read(&self.bytes_out),
            replayed_entries: read(&self.replayed_entries),
            failed_streams: read(&self.failed_streams),
        }
    }
}

/// Maps a flow-layer error onto the server's error type: engine failures
/// stay typed, everything else is a protocol violation by the client.
fn flow_error(error: FlowError) -> ServerError {
    match error {
        FlowError::Engine(e) => ServerError::Engine(e),
        other => ServerError::Protocol(other.to_string()),
    }
}

/// Renders one finished flow's stream totals as a wire `FLOW_DONE` body.
fn done_summary(summary: &StreamSummary, server_initiated: bool) -> DoneSummary {
    DoneSummary {
        bytes_in: summary.bytes_in,
        payloads_emitted: summary.payloads_emitted,
        wire_bytes: summary.wire_bytes,
        compressed_payloads: summary.compressed_payloads,
        control_updates: summary.control_updates,
        server_initiated,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitingHello,
    Serving,
    Ended,
}

/// One connection's protocol state over backend `B`. See the module docs.
pub struct Session<B: CompressionBackend + Send + 'static> {
    phase: Phase,
    router: FlowRouter<B>,
    registry: Arc<SessionRegistry>,
    /// Keys this session holds in the registry's active set. Not derived
    /// from the router: a flow whose finish fails has left the router but
    /// must still be released.
    claimed: Vec<FlowKey>,
    codec: WireCodec,
    /// Running totals across finished flows, for `DONE`.
    totals: DoneSummary,
}

impl<B: CompressionBackend + Send + 'static> Session<B> {
    /// A session awaiting its hello, whose flows are shaped by `host`
    /// (`host.durable`, when set, is the store *root*).
    pub fn new(host: &HostPathConfig, registry: Arc<SessionRegistry>) -> ServerResult<Self> {
        let mut config = FlowRouterConfig::new(host.engine);
        config.batch_units = host.batch_chunks;
        config.pipeline_depth = host.pipeline_depth.unwrap_or(2);
        config.durable_root = host.durable.clone();
        config.checkpoint_cadence = host.checkpoint_cadence;
        config.sync = host.sync;
        Ok(Self {
            phase: Phase::AwaitingHello,
            router: FlowRouter::new(config).map_err(flow_error)?,
            registry,
            claimed: Vec::new(),
            codec: WireCodec::new(),
            totals: DoneSummary::default(),
        })
    }

    /// True once `DONE` went out (or the peer left before saying hello):
    /// nothing further will be accepted or emitted.
    pub fn is_ended(&self) -> bool {
        self.phase == Phase::Ended
    }

    /// Advances the session by one client record, appending every framed
    /// record it provokes to `out`, back to back in wire order.
    pub fn handle(&mut self, record: Record, out: &mut Vec<u8>) -> ServerResult<()> {
        self.counted(out, |session, out| session.dispatch(record, out))
    }

    /// Graceful stop at a record boundary (the peer hung up without `END`,
    /// or the server is shutting down): everything received is whole, so
    /// finish and commit it exactly as `END` would, marked server-initiated.
    pub fn stop(&mut self, out: &mut Vec<u8>) -> ServerResult<()> {
        self.counted(out, |session, out| {
            if session.phase == Phase::Serving {
                return session.finish(true, out);
            }
            session.phase = Phase::Ended;
            Ok(())
        })
    }

    /// Runs one step and counts the bytes it appended to `out`.
    fn counted(
        &mut self,
        out: &mut Vec<u8>,
        step: impl FnOnce(&mut Self, &mut Vec<u8>) -> ServerResult<()>,
    ) -> ServerResult<()> {
        let before = out.len();
        let result = step(self, out);
        bump(&self.registry.bytes_out, (out.len() - before) as u64);
        result
    }

    fn dispatch(&mut self, record: Record, out: &mut Vec<u8>) -> ServerResult<()> {
        match (self.phase, record) {
            (Phase::AwaitingHello, Record::ClientHello(hello)) => self.on_hello(&hello, out),
            (Phase::AwaitingHello, other) => Err(ServerError::Protocol(format!(
                "expected CLIENT_HELLO, got {}",
                other.kind_name()
            ))),
            (Phase::Ended, other) => Err(ServerError::Protocol(format!(
                "{} record after END",
                other.kind_name()
            ))),
            (Phase::Serving, Record::Open { key, entries_held }) => {
                self.on_open(key, entries_held, out)
            }
            (Phase::Serving, Record::Data { key, bytes }) => {
                bump(&self.registry.records_in, 1);
                bump(&self.registry.bytes_in, bytes.len() as u64);
                self.router.push(key, &bytes).map_err(flow_error)?;
                self.frame_events(out);
                Ok(())
            }
            (Phase::Serving, Record::EndFlow { key }) => self.finish_flow(key, false, out),
            (Phase::Serving, Record::End) => self.finish(false, out),
            (Phase::Serving, other) => Err(ServerError::Protocol(format!(
                "unexpected {} record mid-session",
                other.kind_name()
            ))),
        }
    }

    /// The one negotiation rule: when the client states a codec set, every
    /// codec the backend may emit must be in it.
    fn on_hello(&mut self, hello: &ClientHello, out: &mut Vec<u8>) -> ServerResult<()> {
        // The router builds its own per-flow instances; this one only
        // answers what they may emit.
        let codecs = B::from_engine_config(&self.router.config().engine)
            .map_err(EngineError::Gd)?
            .codec_ids();
        if !hello.codecs.is_empty() {
            if let Some(id) = codecs.iter().find(|id| !hello.codecs.contains(id)) {
                return Err(ServerError::Protocol(format!(
                    "client codec set {:?} is missing codec {id} required by the session backend",
                    hello.codecs
                )));
            }
        }
        self.codec
            .encode_into(&Record::ServerHello(ServerHello { codecs }), out);
        self.phase = Phase::Serving;
        Ok(())
    }

    fn on_open(&mut self, key: FlowKey, entries_held: u64, out: &mut Vec<u8>) -> ServerResult<()> {
        if self.claimed.contains(&key) {
            return Err(flow_error(FlowError::FlowActive(key)));
        }
        // Claim before building the engine: opening a durable store another
        // session is writing would corrupt it.
        if !lock_unpoisoned(&self.registry.active).insert(key) {
            return Err(ServerError::Protocol(format!(
                "{key} is already being served on another connection"
            )));
        }
        self.claimed.push(key);
        let resume = self
            .router
            .open_flow(key, entries_held)
            .map_err(flow_error)?;
        let opened = Record::Opened {
            key,
            resume: ResumeSummary {
                resume_bytes_in: resume.resume_bytes_in,
                replay_entries: resume.replay.len() as u64,
                reseed_entries: resume.reseed.len() as u64,
                warm: resume.warm,
            },
        };
        self.codec.encode_into(&opened, out);
        bump(&self.registry.replayed_entries, resume.replay.len() as u64);
        for batch in replay_batches(&resume.replay) {
            self.frame_batch(key, &batch, out);
        }
        bump(&self.registry.controls_out, resume.reseed.len() as u64);
        for update in resume.reseed {
            self.codec.encode_into(&Record::Reseed { key, update }, out);
        }
        Ok(())
    }

    /// Frames one batch as one `PAYLOAD` record, counting what it carries.
    fn frame_batch(&mut self, key: FlowKey, batch: &Batch, out: &mut Vec<u8>) {
        bump(&self.registry.payloads_out, batch.payload_count());
        bump(&self.registry.controls_out, batch.updates().len() as u64);
        self.codec.encode_payload_into(key, batch, out);
    }

    /// Frames every batch the router queued since the last call, in
    /// emission order (per flow: wire order).
    fn frame_events(&mut self, out: &mut Vec<u8>) {
        for FlowBatch { key, batch } in self.router.drain_events() {
            self.frame_batch(key, &batch, out);
        }
    }

    fn finish_flow(
        &mut self,
        key: FlowKey,
        server_initiated: bool,
        out: &mut Vec<u8>,
    ) -> ServerResult<()> {
        let finished = self.router.end_flow(key).map_err(flow_error)?;
        self.frame_events(out);
        // The flow's engine (and store) closed inside `end_flow`.
        lock_unpoisoned(&self.registry.active).remove(&key);
        self.claimed.retain(|k| *k != key);
        let summary = done_summary(&finished.summary, server_initiated);
        self.totals.bytes_in += summary.bytes_in;
        self.totals.payloads_emitted += summary.payloads_emitted;
        self.totals.wire_bytes += summary.wire_bytes;
        self.totals.compressed_payloads += summary.compressed_payloads;
        self.totals.control_updates += summary.control_updates;
        bump(&self.registry.streams_completed, 1);
        self.codec
            .encode_into(&Record::FlowDone { key, summary }, out);
        Ok(())
    }

    /// Finishes the flows still open in sorted key order (deterministic
    /// drain), then answers with the session totals.
    fn finish(&mut self, server_initiated: bool, out: &mut Vec<u8>) -> ServerResult<()> {
        for key in self.router.active_keys() {
            self.finish_flow(key, true, out)?;
        }
        self.totals.server_initiated = server_initiated;
        self.codec.encode_into(&Record::Done(self.totals), out);
        self.phase = Phase::Ended;
        Ok(())
    }
}

impl<B: CompressionBackend + Send + 'static> Drop for Session<B> {
    /// Releases this session's claims on every exit path, so a dead
    /// connection never wedges its flows — after abandoning the flows, so
    /// the next owner never opens a store this session still holds.
    fn drop(&mut self) {
        self.router.abandon_all();
        let mut active = lock_unpoisoned(&self.registry.active);
        for key in &self.claimed {
            active.remove(key);
        }
    }
}
