//! # `zipline-engine` — a backend-generic sharded compression engine
//!
//! The ZipLine paper offloads Generalized Deduplication to the switch, but
//! its end hosts still run the full GD codec — and its evaluation compares
//! GD *against* DEFLATE-class compressors. This crate is the host side grown
//! into a production-shaped engine whose pipeline is generic over the codec:
//!
//! * [`CompressionBackend`] — the codec contract: batch compress/decompress
//!   through recycled scratch, wire serialization in record order, and
//!   (for backends with shared decoder state) snapshot + delta hooks for
//!   decoder sync plus per-shard statistics;
//! * [`GdBackend`] — the default backend: the sharded multi-core GD codec.
//!   [`ShardedDictionary`] splits the basis dictionary into `N` independent
//!   [`zipline_gd::BasisDictionary`] shards selected by the word-parallel
//!   basis hash ([`zipline_gd::BitVec::hash_words`]), with per-shard
//!   statistics, a merged [`DictionarySnapshot`] of the live mappings and a
//!   per-shard update journal that keeps decoders in sync; batches fan out
//!   over a fixed pool of `std::thread` workers and reassemble in input
//!   order;
//! * [`DeflateBackend`] — the paper's gzip baseline (via `zipline-deflate`)
//!   driven through the *same* engine, stream and host path, one gzip
//!   member per batch; [`PassthroughBackend`] — the identity codec, the
//!   ratio floor and wire-path test double;
//! * [`CompressionEngine<B>`] / [`EngineDecompressor<B>`] — the engine
//!   shell and its decoder mirror. With the default backend
//!   (`CompressionEngine`, `EngineDecompressor` — the names previous
//!   releases exported as concrete types keep compiling) output is a pure
//!   function of `(data, shard count)`: worker count and spawn policy only
//!   change wall-clock time, and the 1-shard configuration is bit-identical
//!   to [`zipline_gd::GdCompressor::compress_batch`] — a property asserted
//!   across the trait boundary by the equivalence suite;
//! * [`PipelinedStream`] — the streaming pipeline API: push records (e.g.
//!   from `zipline-traces` workload iterators), get whole [`Batch`]es — or,
//!   through [`PayloadSinks`], wire-ready payloads — out. Every batch
//!   carries each [`DictionaryUpdate`] placed before the payload that needs
//!   it, which is what keeps a remote decoder's table exact under
//!   identifier churn. On an engine built with
//!   [`pipelined`](EngineBuilder::pipelined) (and a spawn policy that
//!   allows it) a dedicated engine worker compresses while the caller
//!   fills the next batch through a bounded, backpressured channel;
//!   otherwise the stream runs inline. Output is the same bits either way;
//! * [`EngineBuilder`] — the one validated front door: backend, shards,
//!   workers, spawn policy, the [`pipelined`](EngineBuilder::pipelined)
//!   ingest depth and durability, checked once at `build()`.
//!
//! # The `CompressionBackend` contract
//!
//! A backend must (see [`backend`] for the full rules):
//!
//! 1. compress batches of a whole number of [`unit_bytes`] (plus one ragged
//!    final flush) losslessly, reusing internal scratch;
//! 2. serialize each batch through [`emit_batch`] **once per record, in
//!    input order** — the record index is the `at` coordinate against which
//!    the stream interleaves dictionary updates;
//! 3. if it maintains shared decoder state, journal every mutation and
//!    drain ordered [`DictionaryDelta`]s whose updates obey the rules below;
//!    a delta-less backend (deflate: every gzip member is self-contained;
//!    passthrough: no state at all) opts out by keeping the default no-op
//!    hooks — snapshots are `None`, deltas are empty, and an attached
//!    control plane simply never sees traffic.
//!
//! [`unit_bytes`]: CompressionBackend::unit_bytes
//! [`emit_batch`]: CompressionBackend::emit_batch
//!
//! # `DictionaryDelta` ordering guarantees
//!
//! The delta a batch produces is the contract between a live-sync backend
//! and any decoder-sync control plane:
//!
//! 1. updates are ordered by record position `at` (input-order index within
//!    the batch), ties broken by shard index then per-shard journal order;
//!    `seq` is strictly increasing in that order and across batches;
//! 2. an eviction's [`UpdateOp::Remove`] immediately precedes the
//!    [`UpdateOp::Install`] that recycles the identifier (same `at`);
//! 3. applying every update with `at <= i` before decoding record `i`
//!    resolves every `Ref` against exactly the basis the compressor
//!    referenced — the property every stream batch and the `zipline`
//!    crate's `EngineControlPlane` rely on;
//! 4. the delta is a pure function of `(data, shard count)`: worker count
//!    and spawn policy never change it.
//!
//! # Quick example
//!
//! ```
//! use zipline_engine::{DeflateBackend, EngineBuilder};
//!
//! // Sensor-style data: many chunks share a few bases.
//! let data: Vec<u8> = (0..64 * 32).map(|i| (i / 320) as u8).collect();
//!
//! // The GD engine (default backend), 4 shards, 2 workers.
//! let builder = EngineBuilder::new().shards(4).workers(2);
//! let mut decoder = builder.build_decompressor().unwrap();
//! let mut engine = builder.build().unwrap();
//! let stream = engine.compress_batch(&data).unwrap();
//! assert_eq!(decoder.decompress_batch(&stream).unwrap(), data);
//!
//! // The same engine shell over the paper's gzip baseline.
//! let mut gzip = EngineBuilder::new()
//!     .backend(DeflateBackend::default())
//!     .build()
//!     .unwrap();
//! let member = gzip.compress_batch(&data).unwrap();
//! let mut gzip_decoder = gzip.decompressor().unwrap();
//! assert_eq!(gzip_decoder.decompress_batch(&member).unwrap(), data);
//! ```

pub mod backend;
pub mod builder;
pub mod engine;
pub mod error;
pub mod frame;
pub mod persist;
pub mod pipelined;
pub mod registry;
pub mod shard;
pub mod stream;
pub mod tenant;

pub use backend::{
    BackendDecompressor, CompressionBackend, DeflateBackend, DeflateDecompressor,
    PassthroughBackend, PassthroughDecompressor,
};
pub use builder::EngineBuilder;
pub use engine::{
    CompressionEngine, EngineConfig, EngineDecompressor, GdBackend, GdBackendDecompressor,
    SpawnPolicy,
};
pub use error::EngineError;
pub use frame::{Batch, BatchEvent, FrameError};
pub use persist::{CommittedEntry, EngineStore, PersistError, StoreOptions, SyncPolicy, WarmStart};
pub use pipelined::{PipelineConfig, PipelinedStream};
pub use registry::{
    codec_from_u8, AnyDecompressor, AutoBackend, AutoBatch, AutoConfig, AutoDecompressor,
    CodecCursor, CodecEntry, CodecId, CodecRegistry, HybridDecompressor, HybridGdDeflateBackend,
    RegistryDecompressor, CODEC_DEFLATE, CODEC_GD, CODEC_HYBRID, CODEC_PASSTHROUGH,
};
pub use shard::{
    DictionaryDelta, DictionarySnapshot, DictionaryState, DictionaryUpdate, ShardOutcome,
    ShardState, ShardStats, ShardedDictionary, UpdateOp,
};
pub use stream::{BatchSink, PayloadSinks, StreamSummary};
pub use tenant::{
    flow_dir, flow_placement, plan_resume, reseed_updates, tenant_dir, FlowBatch, FlowDecoderPool,
    FlowError, FlowKey, FlowResume, FlowRouter, FlowRouterConfig, FlowSummary, TenantStats,
};
