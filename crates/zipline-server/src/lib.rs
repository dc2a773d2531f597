//! `zipline-server` — the network-facing ingest server for the ZipLine
//! reproduction, plus the closed-loop load harness that measures it.
//!
//! The paper compresses live traffic on the host/NIC path; everything below
//! this crate compresses in-process iterators. This crate puts the engine
//! behind a socket: clients stream raw records over TCP or a Unix-domain
//! socket, the server drives one pipelined engine per flow, and the
//! compressed wire payloads (with the in-band control updates that keep a
//! decoder live-synced) stream back in order.
//!
//! # Wire protocol (one paragraph)
//!
//! Both directions speak length-prefixed, CRC-tagged records — the exact
//! record discipline of the durable store's on-disk logs (`len:u32le ·
//! kind:u8+body · crc32`, CRC-32 polynomial `0x04C1_1DB7` over the
//! payload). There is one session shape (wire v5): `CLIENT_HELLO` (codec
//! set) → `SERVER_HELLO`, then any number of interleaved **flows**, each
//! `OPEN` (flow key + replay cursor) → `OPENED` (resume offset +
//! replay/reseed counts) → replayed journal entries (after a crash) →
//! `DATA`* → `END_FLOW` → `FLOW_DONE`, and finally `END` → `DONE`. Every
//! flow-scoped record carries its [`FlowKey`]. Compressed output comes back
//! one `PAYLOAD` record per engine batch: the batch's payloads, the
//! dictionary updates placed among them, and the id of the codec that
//! compressed it (0 = the flow's fixed backend), under one CRC —
//! [`ClientSession`] expands it into one [`ServerEvent`] per payload and
//! per update. Full field layouts live in [`wire`]; the state machine is
//! [`session::Session`].
//!
//! # Flows and the classic single stream
//!
//! `OPEN` places a flow onto its tenant's partition pool (own engine, own
//! dictionary namespace, own `tenant-<id>/stream-<id>` durable directory
//! via [`zipline_engine::tenant`]'s router), so one client decoder pool
//! tracks many interleaved streams independently — one tenant's dictionary
//! churn never perturbs another's decoder. A classic one-stream-per-
//! connection client is a session holding exactly one flow, tenant 0's
//! `(0, stream_id)`; [`ClientSession::hello`] keeps that shape as sugar on
//! the client side only. Per flow the byte stream is bit-identical to an
//! in-process pipelined engine over the same configuration, resume
//! included.
//!
//! # Durable resume (the PR-6 loop, closed)
//!
//! With [`ServerConfig::durable`], each flow journals under its own
//! directory. A server killed mid-stream restarts warm: the client
//! reopens the flow with the count of records it already received this epoch
//! (`entries_held`), the server replays the committed journal past that
//! cursor and names the input byte offset to resume from — and because
//! commits cut at whole-batch boundaries, checkpoint cadence 1 restores
//! exactly, and GD output is a pure function of `(data, shard count, batch
//! size)`, the concatenation of pre-crash and post-restart records is
//! **bit-identical** to an uninterrupted run (proven by
//! `tests/crash_restart.rs`). After a clean `FLOW_DONE` the journal compacts and
//! the cursor resets; a later cold client is resynced by synthesized
//! `RESEED` installs instead of replay.
//!
//! # Backpressure and ordering
//!
//! Per connection, one reader thread feeds the session and one writer
//! thread drains a bounded queue of pre-framed responses; ordering is total
//! (control updates precede the payloads that depend on them) and a slow
//! client backpressures the server instead of growing a buffer — the rules
//! are spelled out in [`server`]'s module docs, shutdown semantics
//! included.
//!
//! # Load harness
//!
//! [`load`] drives N concurrent closed-loop connections from any
//! `zipline-traces` workload (sensor, DNS, churn, Zipf flow mix) and
//! reports throughput plus p50/p99/p999 record latency from a mergeable
//! log-linear histogram ([`histogram`]). The `zipline-load` binary wraps it
//! for the command line; `zipline-serverd` runs the standalone server.

pub mod client;
pub mod error;
pub mod histogram;
pub mod load;
mod net;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{ClientSession, ServerEvent};
pub use error::{ServerError, ServerResult};
pub use histogram::LatencyHistogram;
pub use load::{run_closed_loop, run_multiplexed, LoadConfig, LoadReport, TenantLine};
pub use net::Endpoint;
pub use server::{
    stream_dir, BackendChoice, ServerConfig, ServerConfigBuilder, ServerHandle, ServerReport,
};
pub use session::{Session, SessionRegistry, StatsSnapshot};
pub use wire::{
    ClientHello, DoneSummary, Record, RecordReader, ResumeSummary, ServerHello, WireCodec,
    WireError, MAX_WIRE_RECORD_BYTES, WIRE_VERSION,
};
pub use zipline_engine::tenant::{FlowDecoderPool, FlowKey};
