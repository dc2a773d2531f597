//! One validated front door for engine construction.
//!
//! [`EngineBuilder`] is the single fluent front door to an engine: it
//! checks the whole shape **once** at [`build`](EngineBuilder::build):
//!
//! ```
//! use zipline_engine::{DeflateBackend, EngineBuilder, SpawnPolicy};
//!
//! // The GD default: paper parameters, 4 shards, 2 workers. GD journals
//! // every dictionary mutation, so each batch carries its updates.
//! let mut engine = EngineBuilder::new()
//!     .shards(4)
//!     .workers(2)
//!     .spawn(SpawnPolicy::Auto)
//!     .build()
//!     .unwrap();
//! engine.compress_batch(&[7u8; 32 * 4]).unwrap();
//! assert_eq!(engine.take_delta().updates.len(), 1);
//!
//! // The same pipeline over gzip: swap the backend, keep the shape.
//! let mut gzip_engine = EngineBuilder::new()
//!     .backend(DeflateBackend::default())
//!     .build()
//!     .unwrap();
//! let member = gzip_engine.compress_batch(&[7u8; 4096]).unwrap();
//! assert!(member.len() < 4096);
//! ```
//!
//! The builder also constructs the mirrored decoder
//! ([`build_decompressor`](EngineBuilder::build_decompressor)), fixing the
//! historical asymmetry where `CompressionEngine::new` took its
//! configuration by value but `EngineDecompressor::new` by reference — both
//! are now by-value conveniences, and the builder is the canonical path.

use std::path::PathBuf;

use crate::backend::CompressionBackend;
use crate::engine::{CompressionEngine, EngineConfig, EngineDecompressor, GdBackend, SpawnPolicy};
use crate::error::{EngineError, Result as EngineResult};
use crate::persist::{EngineStore, PersistError, StoreOptions, SyncPolicy};
use crate::pipelined::PipelineConfig;
use zipline_gd::config::GdConfig;
use zipline_gd::error::Result;

/// Fluent builder for [`CompressionEngine`] / [`EngineDecompressor`] pairs;
/// see the module docs.
#[derive(Debug, Clone)]
pub struct EngineBuilder<B: CompressionBackend = GdBackend> {
    config: EngineConfig,
    /// Ingest pipeline depth for [`PipelinedStream`](crate::PipelinedStream);
    /// `None` makes streams over the engine run inline.
    pipeline_depth: Option<usize>,
    /// Durable store directory; `None` keeps the engine in-memory only.
    durable: Option<PathBuf>,
    /// Store tuning, applied when [`Self::durable`] is set.
    store_options: StoreOptions,
    /// Explicit backend instance; when `None`, `build()` constructs one from
    /// the configuration via [`CompressionBackend::from_engine_config`].
    backend: Option<B>,
}

impl EngineBuilder<GdBackend> {
    /// Starts from [`EngineConfig::paper_default`] with the GD backend.
    pub fn new() -> Self {
        Self {
            config: EngineConfig::paper_default(),
            pipeline_depth: None,
            durable: None,
            store_options: StoreOptions::default(),
            backend: None,
        }
    }

    /// Starts from the 1-shard/1-worker/inline shape that reproduces
    /// `GdCompressor::compress_batch` bit for bit.
    pub fn single_threaded(gd: GdConfig) -> Self {
        Self::new().config(EngineConfig::single_threaded(gd))
    }
}

impl Default for EngineBuilder<GdBackend> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: CompressionBackend> EngineBuilder<B> {
    /// Replaces the whole engine configuration at once.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the GD parameters (chunk size, Hamming `m`, identifier width).
    pub fn gd(mut self, gd: GdConfig) -> Self {
        self.config.gd = gd;
        self
    }

    /// Sets the dictionary shard count (a power of two dividing
    /// `2^id_bits`; checked at [`build`](Self::build)).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the logical worker count (also the partition count of a batch).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the thread spawn policy.
    pub fn spawn(mut self, spawn: SpawnPolicy) -> Self {
        self.config.spawn = spawn;
        self
    }

    /// Lets streams over the built engine
    /// ([`PipelinedStream`](crate::PipelinedStream)) run an engine worker
    /// thread: `depth` is the bounded channel capacity — filled batches
    /// allowed in flight between the ingest thread and the worker before
    /// `push_record` blocks. Depth 1 is classic double buffering. Validated
    /// at [`build`](Self::build) (`1..=`[`MAX_PIPELINE_DEPTH`]); whether a
    /// worker thread actually spawns follows the engine's
    /// [`spawn`](Self::spawn) policy, so a 1-core host under
    /// [`SpawnPolicy::Auto`] streams inline with identical output. Without
    /// this call streams always run inline.
    ///
    /// [`MAX_PIPELINE_DEPTH`]: crate::pipelined::MAX_PIPELINE_DEPTH
    pub fn pipelined(mut self, depth: usize) -> Self {
        self.pipeline_depth = Some(depth);
        self
    }

    /// Makes the built engine durable: an [`EngineStore`] under `dir` is
    /// opened (warm restart) or created (fresh start) at
    /// [`build`](Self::build), and every stream batch is committed to it
    /// before emission. On a warm restart the backend's dictionary is
    /// rehydrated from the store — no cold-start snapshot resync — and
    /// the recovery data is available once via
    /// [`CompressionEngine::take_warm_start`]. The store journals the same
    /// dictionary updates the batches carry to a decoder.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable = Some(dir.into());
        self
    }

    /// Sets the durable store's [`StoreOptions::checkpoint_cadence`]. No
    /// stream consults it: [`PipelinedStream`](crate::PipelinedStream)
    /// commits every batch without a checkpoint and compacts the store to
    /// one checkpoint at `finish`. It only matters to a caller that drives
    /// [`EngineStore::commit_batch`] itself and asks
    /// [`EngineStore::checkpoint_due`]. No effect without
    /// [`durable`](Self::durable).
    pub fn checkpoint_cadence(mut self, batches: u64) -> Self {
        self.store_options.checkpoint_cadence = batches.max(1);
        self
    }

    /// Sets the durable store's [`SyncPolicy`]: how far each commit's
    /// durability reaches before `commit_batch` returns. The default,
    /// [`SyncPolicy::Flush`], covers process crash; [`SyncPolicy::Data`]
    /// adds `fdatasync` at the two commit flush points and covers power
    /// loss. No effect without [`durable`](Self::durable).
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.store_options.sync = policy;
        self
    }

    /// Swaps in an explicit backend instance (e.g.
    /// [`DeflateBackend::new`](crate::DeflateBackend::new) with a chosen
    /// level). Without this call, `build()` derives the backend from the
    /// configuration.
    ///
    /// The instance is used **as-is**: the configuration knobs
    /// ([`gd`](Self::gd)/[`shards`](Self::shards)/[`workers`](Self::workers)/
    /// [`spawn`](Self::spawn)) are still validated at `build()` but do not
    /// reshape an already-built backend, so set knobs *or* pass a
    /// pre-configured backend — not conflicting values of both. Deriving
    /// both halves from one builder keeps the pair consistent either way:
    /// [`build_decompressor`](Self::build_decompressor) mirrors the explicit
    /// instance, not the knobs.
    pub fn backend<B2: CompressionBackend>(self, backend: B2) -> EngineBuilder<B2> {
        EngineBuilder {
            config: self.config,
            pipeline_depth: self.pipeline_depth,
            durable: self.durable,
            store_options: self.store_options,
            backend: Some(backend),
        }
    }

    /// Validates the configuration once and builds the engine. With
    /// [`durable`](Self::durable) set, this is also where the store is
    /// opened or created and a warm restart rehydrates the backend.
    pub fn build(self) -> EngineResult<CompressionEngine<B>> {
        self.config.validate()?;
        let pipeline = self
            .pipeline_depth
            .map(|depth| {
                let pipeline = PipelineConfig {
                    depth,
                    spawn: self.config.spawn,
                };
                pipeline.validate().map(|()| pipeline)
            })
            .transpose()?;
        let backend = match self.backend {
            Some(backend) => backend,
            None => B::from_engine_config(&self.config)?,
        };

        let durable = self
            .durable
            .map(|dir| {
                let shards = self.config.shards;
                let per_shard = self.config.gd.dictionary_capacity() / shards;
                let (mut store, warm) = EngineStore::open_or_create(&dir, shards, per_shard)?;
                if store.shard_count() != shards || store.shard_capacity() != per_shard {
                    return Err(PersistError::Corrupt(format!(
                        "store at {} was created for {} shards of {}, engine wants {} of {}",
                        dir.display(),
                        store.shard_count(),
                        store.shard_capacity(),
                        shards,
                        per_shard,
                    )));
                }
                store.set_options(self.store_options);
                Ok((store, warm))
            })
            .transpose()?;

        let mut engine = CompressionEngine::from_backend(backend);
        engine.set_pipeline(pipeline);
        if let Some((store, warm)) = durable {
            if let Some(warm) = warm {
                if engine.backend().supports_live_sync() {
                    engine
                        .backend_mut()
                        .restore_dictionary_state(&warm.dictionary)
                        .map_err(EngineError::Gd)?;
                }
                engine.set_warm_start(warm);
            }
            engine.attach_store(store);
        }
        Ok(engine)
    }

    /// Validates the configuration once and builds the mirrored
    /// decompressor (worker count and spawn policy are irrelevant to
    /// decoding). Mirrors the explicit backend instance when one was set,
    /// and otherwise goes straight to the decoder via
    /// [`CompressionBackend::decompressor_for`] — no compression-side state
    /// is built and discarded.
    pub fn build_decompressor(&self) -> Result<EngineDecompressor<B>> {
        self.config.validate()?;
        let inner = match &self.backend {
            Some(backend) => backend.decompressor()?,
            None => B::decompressor_for(&self.config)?,
        };
        Ok(EngineDecompressor::from_backend_decompressor(inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PassthroughBackend;

    #[test]
    fn build_validates_once_and_rejects_bad_shapes() {
        assert!(EngineBuilder::new().shards(3).build().is_err());
        assert!(EngineBuilder::new().workers(0).build().is_err());
        assert!(EngineBuilder::new().shards(3).build_decompressor().is_err());
        // A bad GD+shard shape is rejected even for backends that ignore it
        // — the builder validates the configuration, not the backend.
        assert!(EngineBuilder::new()
            .shards(3)
            .backend(PassthroughBackend::new())
            .build()
            .is_err());
    }

    #[test]
    fn builder_pair_roundtrips() {
        let builder = EngineBuilder::new().shards(4).workers(2);
        let mut dec = builder.build_decompressor().unwrap();
        let mut engine = builder.build().unwrap();
        let data = vec![9u8; 32 * 20];
        let stream = engine.compress_batch(&data).unwrap();
        assert_eq!(dec.decompress_batch(&stream).unwrap(), data);
    }

    #[test]
    fn pipelined_knob_is_validated_and_carried() {
        assert!(EngineBuilder::new().pipelined(0).build().is_err());
        assert!(EngineBuilder::new().pipelined(1 << 20).build().is_err());
        let engine = EngineBuilder::new()
            .spawn(SpawnPolicy::Inline)
            .pipelined(3)
            .build()
            .unwrap();
        let pipeline = engine.pipeline().expect("pipeline configured");
        assert_eq!(pipeline.depth, 3);
        assert_eq!(pipeline.spawn, SpawnPolicy::Inline);
        // Without the knob streams over the engine run inline.
        assert!(EngineBuilder::new().build().unwrap().pipeline().is_none());
        // The knob survives a backend swap.
        let engine = EngineBuilder::new()
            .pipelined(2)
            .backend(PassthroughBackend::new())
            .build()
            .unwrap();
        assert_eq!(engine.pipeline().unwrap().depth, 2);
    }

    #[test]
    fn live_sync_is_set_at_build() {
        // GD journals from the moment it is built: the first batch's
        // install is in the delta without any opt-in.
        let mut engine = EngineBuilder::new().build().unwrap();
        assert!(engine.backend().supports_live_sync());
        engine.compress_batch(&[3u8; 32 * 2]).unwrap();
        assert_eq!(engine.take_delta().updates.len(), 1);
        // Delta-less backends have nothing to journal.
        let mut engine = EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build()
            .unwrap();
        assert!(!engine.backend().supports_live_sync());
        engine.compress_batch(&[3u8; 64]).unwrap();
        assert!(engine.take_delta().is_empty());
    }
}
