//! The multi-core batch compression engine, its GD backend and the decoder
//! mirrors.
//!
//! [`CompressionEngine<B>`] is a thin generic shell over a
//! [`CompressionBackend`]; all the machinery in this module belongs to
//! [`GdBackend`], the bit-identical default backend that grew out of the
//! one-shot [`zipline_gd::GdCompressor`]. A GD batch compresses in two
//! phases:
//!
//! 1. **Encode** (embarrassingly parallel): the batch is split into
//!    contiguous chunk ranges, one per worker; each worker runs the
//!    word-parallel [`ChunkCodec::encode_chunk_into`] against its own
//!    [`EncodeScratch`], producing `(extra, deviation, basis, basis_hash)`
//!    per chunk and the chunk's shard assignment.
//! 2. **Classify** (parallel per shard): every chunk is routed to shard
//!    `basis_hash mod S` of the [`ShardedDictionary`]; each shard is owned
//!    by exactly one worker, which walks the batch in input order and turns
//!    its shards' chunks into `Ref`/`NewBasis` records. Records are then
//!    reassembled in input order.
//!
//! Because shard state only ever depends on the input order of the chunks
//! routed to it, the compressed stream is a pure function of `(data, shard
//! count)` — worker count and spawn policy affect wall-clock time, never
//! bytes. The 1-shard configuration reproduces `GdCompressor::compress_batch`
//! bit for bit (both properties are enforced by `tests/engine_equivalence.rs`,
//! including across the [`CompressionBackend`] trait boundary).
//!
//! Threads come from a fixed pool of `std::thread` scoped workers (the build
//! environment has no crates.io access, so no rayon); each worker owns its
//! scratch buffers across batches. With [`SpawnPolicy::Auto`] the engine
//! falls back to inline execution when the host has a single core or the
//! batch is too small to amortize thread handoff — worker count then only
//! controls partitioning, keeping output deterministic while never
//! oversubscribing the machine.
//!
//! The decoder mirror ([`GdBackendDecompressor`]) replays the dictionary
//! step of every record — same hash, same shard, same clock tick, same
//! recency move, so identifiers resolve as they did on the compressor — and
//! emits the chunk from a [`ChunkCache`]: a basis is turned into chunk bytes
//! (parity CRC, bit assembly) once per identifier assignment, a reference to
//! it is a copy, an OR of the carried bits and one bit flip, read straight
//! off the wire bytes ([`PayloadFields`]). A slot is invalidated when its
//! identifier is assigned a basis — learned in-band or installed by
//! [`GdBackendDecompressor::apply_update`] — filled on the first reference
//! after that, and read only after the dictionary has said the identifier is
//! live, so a retired identifier's stale slot is unreachable.
//!
//! Construction goes through [`EngineBuilder`](crate::EngineBuilder), which
//! validates the whole shape once at `build()`; `CompressionEngine::new` and
//! `EngineDecompressor::new` remain as by-value conveniences.

use crate::backend::{BackendDecompressor, CompressionBackend};
use crate::persist::{EngineStore, WarmStart};
use crate::pipelined::PipelineConfig;
use crate::registry::{CodecId, CODEC_GD};
use crate::shard::{
    DictionaryDelta, DictionarySnapshot, DictionaryState, DictionaryUpdate, ShardOutcome,
    ShardStats, ShardedDictionary, UpdateOp,
};
use zipline_gd::codec::{
    Carried, ChunkCache, ChunkCodec, CompressedStream, EncodeScratch, EncodedChunk, Record,
};
use zipline_gd::config::GdConfig;
use zipline_gd::error::{GdError, Result};
use zipline_gd::packet::{PacketType, PayloadFields, ZipLinePayload};
use zipline_gd::stats::CompressionStats;

/// How the engine maps logical workers onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpawnPolicy {
    /// Spawn threads only when the host has more than one core and the
    /// batch is large enough to amortize the handoff; otherwise run the
    /// partitions inline on the calling thread. The default.
    #[default]
    Auto,
    /// Never spawn; all partitions run inline. Worker count still controls
    /// partitioning, so output is unchanged.
    Inline,
    /// Always spawn one thread per worker (used by tests to exercise the
    /// threaded path regardless of host parallelism).
    Threads,
}

/// Configuration of a [`CompressionEngine`].
///
/// Prefer assembling one through [`EngineBuilder`](crate::EngineBuilder)
/// (which validates once at `build()`) over poking fields directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// GD parameters (chunk size, Hamming `m`, identifier width).
    pub gd: GdConfig,
    /// Dictionary shard count: a power of two dividing `2^id_bits`.
    pub shards: usize,
    /// Logical worker count (also the partition count of a batch).
    pub workers: usize,
    /// Thread spawn policy.
    pub spawn: SpawnPolicy,
}

impl EngineConfig {
    /// Engine with the paper's GD parameters, 8 dictionary shards and 4
    /// workers under the auto spawn policy.
    pub fn paper_default() -> Self {
        Self {
            gd: GdConfig::paper_default(),
            shards: 8,
            workers: 4,
            spawn: SpawnPolicy::Auto,
        }
    }

    /// The configuration that reproduces `GdCompressor::compress_batch`
    /// bit for bit: one shard, one worker, inline execution.
    pub fn single_threaded(gd: GdConfig) -> Self {
        Self {
            gd,
            shards: 1,
            workers: 1,
            spawn: SpawnPolicy::Inline,
        }
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<()> {
        self.gd.validate()?;
        if self.workers == 0 {
            return Err(GdError::InvalidConfig(
                "worker count must be positive".into(),
            ));
        }
        // Shard constraints are validated by the dictionary constructor.
        ShardedDictionary::for_config(&self.gd, self.shards).map(|_| ())
    }
}

/// Fixed per-worker state, reused across batches.
#[derive(Debug, Default, Clone)]
struct WorkerScratch {
    encode: EncodeScratch,
}

/// The Generalized Deduplication backend: the sharded, multi-core GD codec
/// with the same stream semantics as [`zipline_gd::GdCompressor`]. This is
/// the engine's bit-identical default backend; see the module docs for the
/// two-phase pipeline and the [`CompressionBackend`] impl for the contract
/// it upholds (ordered [`DictionaryDelta`]s, snapshot sync, per-shard
/// statistics).
#[derive(Debug)]
pub struct GdBackend {
    codec: ChunkCodec,
    config: EngineConfig,
    dict: ShardedDictionary,
    /// Per-shard compression accounting (merged view via `stats`).
    shard_compression_stats: Vec<CompressionStats>,
    /// Accounting for raw tails, which bypass the shards.
    tail_stats: CompressionStats,
    /// The fixed worker pool: per-worker scratch buffers.
    workers: Vec<WorkerScratch>,
    /// Reused batch buffer of encoded chunks (threaded path).
    encoded: Vec<EncodedChunk>,
    /// Reused shard assignment per chunk of the current batch.
    shard_of: Vec<u32>,
    /// Reused per-shard chunk index lists (threaded path).
    per_shard_idx: Vec<Vec<u32>>,
    /// Reused per-shard record queues (threaded path).
    per_shard_records: Vec<Vec<Record>>,
    /// Recycled single-chunk slot for the fused inline path.
    inline_slot: EncodedChunk,
    /// Recycled wire serialization buffer for `emit_batch`.
    wire_scratch: Vec<u8>,
    /// Host parallelism, queried once at construction —
    /// `std::thread::available_parallelism` reads cgroup files on Linux and
    /// is far too slow to call per batch.
    cores: usize,
}

impl GdBackend {
    /// Builds the backend with a fresh sharded dictionary.
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let mut dict = ShardedDictionary::for_config(&config.gd, config.shards)?;
        // Every batch carries the updates that make it decodable.
        dict.set_journal(true);
        Ok(Self {
            codec: ChunkCodec::new(&config.gd)?,
            dict,
            shard_compression_stats: vec![CompressionStats::new(); config.shards],
            tail_stats: CompressionStats::new(),
            workers: vec![WorkerScratch::default(); config.workers],
            encoded: Vec::new(),
            shard_of: Vec::new(),
            per_shard_idx: vec![Vec::new(); config.shards],
            per_shard_records: vec![Vec::new(); config.shards],
            inline_slot: EncodedChunk::default(),
            wire_scratch: Vec::new(),
            cores: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            config,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The chunk codec.
    pub fn codec(&self) -> &ChunkCodec {
        &self.codec
    }

    /// The sharded dictionary (e.g. to inspect learned bases).
    pub fn dictionary(&self) -> &ShardedDictionary {
        &self.dict
    }

    /// Merged dictionary snapshot: every live `identifier → basis` mapping
    /// (a warm restart re-announces these). It is not a decoder sync: under
    /// churn a post-hoc snapshot aliases recycled identifiers, which is why
    /// every batch carries its updates
    /// ([`CompressionBackend::take_delta`]).
    pub fn dictionary_snapshot(&self) -> DictionarySnapshot {
        self.dict.snapshot()
    }

    /// Number of OS threads a batch of `n_chunks` will use.
    fn threads_for(&self, n_chunks: usize) -> usize {
        /// Below this many chunks per thread, handoff dominates the work.
        const MIN_CHUNKS_PER_THREAD: usize = 32;
        let workers = self.config.workers;
        let threads = match self.config.spawn {
            SpawnPolicy::Inline => 1,
            SpawnPolicy::Threads => workers,
            SpawnPolicy::Auto => {
                if self.cores <= 1 {
                    1
                } else {
                    workers
                        .min(self.cores)
                        .min(n_chunks / MIN_CHUNKS_PER_THREAD)
                }
            }
        };
        threads.clamp(1, n_chunks.max(1))
    }

    /// Phase 1: encode every whole chunk into `self.encoded` and its shard
    /// assignment into `self.shard_of`, fanning contiguous ranges across the
    /// worker pool.
    fn encode_phase(&mut self, data: &[u8], n_chunks: usize, threads: usize) -> Result<()> {
        let chunk_bytes = self.config.gd.chunk_bytes;
        let num_shards = self.dict.num_shards() as u64;
        if self.encoded.len() > n_chunks {
            self.encoded.truncate(n_chunks);
        } else {
            let grow = n_chunks - self.encoded.len();
            self.encoded.reserve(grow);
            self.encoded
                .extend(std::iter::repeat_with(EncodedChunk::default).take(grow));
        }
        self.shard_of.resize(n_chunks, 0);

        let codec = &self.codec;
        // Contiguous partition: the first `n_chunks % threads` ranges get one
        // extra chunk.
        let base = n_chunks / threads;
        let extra = n_chunks % threads;
        let mut enc_rest: &mut [EncodedChunk] = &mut self.encoded;
        let mut shard_rest: &mut [u32] = &mut self.shard_of;
        let mut offset = 0usize;
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(threads);
            for (t, worker) in self.workers.iter_mut().take(threads).enumerate() {
                let count = base + usize::from(t < extra);
                let (enc_part, enc_tail) = enc_rest.split_at_mut(count);
                enc_rest = enc_tail;
                let (shard_part, shard_tail) = shard_rest.split_at_mut(count);
                shard_rest = shard_tail;
                let data_part = &data[offset * chunk_bytes..(offset + count) * chunk_bytes];
                offset += count;
                let scratch = &mut worker.encode;
                joins.push(scope.spawn(move || -> Result<()> {
                    for ((chunk, slot), shard) in data_part
                        .chunks_exact(chunk_bytes)
                        .zip(enc_part.iter_mut())
                        .zip(shard_part.iter_mut())
                    {
                        codec.encode_chunk_into(chunk, scratch, slot)?;
                        *shard = (slot.basis_hash % num_shards) as u32;
                    }
                    Ok(())
                }));
            }
            joins
                .into_iter()
                .map(|j| j.join().expect("encode worker panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Single-threaded fast path: encode and classify fused into one pass
    /// over the input, streaming every chunk through one recycled slot.
    fn compress_inline(&mut self, data: &[u8], records: &mut Vec<Record>) -> Result<()> {
        let gd = self.config.gd;
        let num_shards = self.dict.num_shards() as u64;
        let Self {
            codec,
            dict,
            shard_compression_stats,
            workers,
            inline_slot,
            ..
        } = self;
        let scratch = &mut workers[0].encode;
        for (at, chunk) in data.chunks_exact(gd.chunk_bytes).enumerate() {
            codec.encode_chunk_into(chunk, scratch, inline_slot)?;
            let shard = (inline_slot.basis_hash % num_shards) as usize;
            let outcome =
                dict.classify_at(shard, &inline_slot.basis, inline_slot.basis_hash, at as u64)?;
            records.push(record_for_outcome(
                &gd,
                inline_slot,
                outcome,
                &mut shard_compression_stats[shard],
            ));
        }
        Ok(())
    }

    /// Phase 2, threaded: shards are distributed round-robin over the worker
    /// threads; each thread classifies the chunks routed to its shards (in
    /// input order, via the per-shard index lists built by
    /// [`Self::encode_phase`]'s caller), and the per-shard record queues are
    /// merged back into input order. All the batch-sized buffers
    /// (`per_shard_idx`, `per_shard_records`) are engine fields recycled
    /// across batches.
    fn classify_parallel(
        &mut self,
        n_chunks: usize,
        threads: usize,
        records: &mut Vec<Record>,
    ) -> Result<()> {
        let gd = self.config.gd;
        let encoded = &self.encoded[..n_chunks];
        let shard_of = &self.shard_of[..n_chunks];

        // Route chunks to shards once, in input order.
        for list in &mut self.per_shard_idx {
            list.clear();
        }
        for (i, &shard) in shard_of.iter().enumerate() {
            self.per_shard_idx[shard as usize].push(i as u32);
        }

        // Thread `t` owns shards `t, t + threads, t + 2*threads, …`.
        let mut groups: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
        for (((handle, stats), idx), out) in self
            .dict
            .shard_handles()
            .into_iter()
            .zip(self.shard_compression_stats.iter_mut())
            .zip(self.per_shard_idx.iter())
            .zip(self.per_shard_records.iter_mut())
        {
            out.clear();
            groups[handle.index() % threads].push((handle, stats, idx, out));
        }

        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let joins: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    scope.spawn(move || -> Result<()> {
                        for (mut handle, stats, idx, out) in group {
                            for &i in idx.iter() {
                                let enc = &encoded[i as usize];
                                let outcome =
                                    handle.classify_at(&enc.basis, enc.basis_hash, i as u64)?;
                                out.push(record_for_outcome(&gd, enc, outcome, stats));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("classify worker panicked"))
                .collect()
        });
        results.into_iter().collect::<Result<()>>()?;

        // Stable merge back into input order: each shard queue is already in
        // input order, so walking the shard assignments replays the batch.
        let mut queues: Vec<std::vec::Drain<'_, Record>> = self
            .per_shard_records
            .iter_mut()
            .map(|v| v.drain(..))
            .collect();
        for &shard in shard_of {
            records.push(
                queues[shard as usize]
                    .next()
                    .expect("every chunk classified exactly once"),
            );
        }
        Ok(())
    }
}

impl CompressionBackend for GdBackend {
    type Batch = CompressedStream;
    type Decompressor = GdBackendDecompressor;

    fn from_engine_config(config: &EngineConfig) -> Result<Self> {
        Self::new(*config)
    }

    fn codec_id(&self) -> CodecId {
        CODEC_GD
    }

    fn unit_bytes(&self) -> usize {
        self.config.gd.chunk_bytes
    }

    /// Compresses a whole buffer, equivalent to
    /// [`zipline_gd::GdCompressor::compress_batch`] modulo identifier
    /// assignment (identical for 1 shard): chunks fan out across the worker
    /// pool and the sharded dictionary, and records are reassembled in input
    /// order. A trailing partial chunk is stored verbatim.
    fn compress_batch(&mut self, data: &[u8]) -> Result<CompressedStream> {
        let chunk_bytes = self.config.gd.chunk_bytes;
        let n_chunks = data.len() / chunk_bytes;
        let threads = self.threads_for(n_chunks);

        let mut records = Vec::with_capacity(n_chunks + 1);
        if threads <= 1 {
            // Fused single pass (no intermediate batch buffer), exactly the
            // shape of `GdCompressor::compress_batch` plus shard routing.
            self.compress_inline(data, &mut records)?;
        } else {
            self.encode_phase(data, n_chunks, threads)?;
            self.classify_parallel(n_chunks, threads, &mut records)?;
        }

        let tail = &data[n_chunks * chunk_bytes..];
        if !tail.is_empty() {
            self.tail_stats.bytes_in += tail.len() as u64;
            self.tail_stats.bytes_out += tail.len() as u64;
            self.tail_stats.emitted_raw += 1;
            self.tail_stats.chunks_in += 1;
            records.push(Record::RawTail {
                bytes: tail.to_vec(),
            });
        }

        Ok(CompressedStream {
            config: self.config.gd,
            records,
        })
    }

    /// Serializes every record of the batch as a wire-ready
    /// [`ZipLinePayload`] through the one recycled scratch buffer, emitting
    /// them in input order (the `at` coordinate of the batch's delta).
    fn emit_batch(
        &mut self,
        batch: CompressedStream,
        emit: &mut dyn FnMut(PacketType, &[u8]),
    ) -> Result<()> {
        let gd = self.config.gd;
        for record in batch.records {
            let payload = match record {
                Record::NewBasis {
                    extra,
                    deviation,
                    basis,
                } => ZipLinePayload::Uncompressed {
                    deviation,
                    extra,
                    basis,
                },
                Record::Ref {
                    extra,
                    deviation,
                    id,
                } => ZipLinePayload::Compressed {
                    deviation,
                    extra,
                    id,
                },
                Record::RawTail { bytes } => ZipLinePayload::Raw(bytes),
            };
            payload.encode_into(&gd, &mut self.wire_scratch)?;
            emit(payload.packet_type(), &self.wire_scratch);
        }
        Ok(())
    }

    /// Merged compression statistics across all shards and tails.
    fn stats(&self) -> CompressionStats {
        let mut merged = self.tail_stats;
        for s in &self.shard_compression_stats {
            merged.merge(s);
        }
        merged
    }

    /// Per-shard dictionary counters.
    fn shard_stats(&self) -> Vec<ShardStats> {
        self.dict.shard_stats()
    }

    fn snapshot(&self) -> Option<DictionarySnapshot> {
        Some(self.dictionary_snapshot())
    }

    fn supports_live_sync(&self) -> bool {
        true
    }

    /// Drains the update journal accumulated since the last call into an
    /// ordered [`DictionaryDelta`]. Call once per batch: each update's `at`
    /// is the input-order record index *within that batch*, so a decoder
    /// applying every update with `at <= i` before record `i` stays exactly
    /// in sync (see the [`DictionaryDelta`] ordering guarantees).
    fn take_delta(&mut self) -> DictionaryDelta {
        self.dict.take_delta()
    }

    /// Full behavioural state of the sharded dictionary, what the persist
    /// layer's checkpoints serialize.
    fn export_dictionary_state(&self) -> Option<DictionaryState> {
        Some(self.dict.export_state())
    }

    /// Warm restart: replaces the sharded dictionary with a persisted
    /// state, preserving the journaling flag (the global `delta_seq`
    /// carries over, so live sync continues monotonically).
    fn restore_dictionary_state(&mut self, state: &DictionaryState) -> Result<()> {
        if state.shard_count != self.config.shards
            || state.shard_count * state.shard_capacity != self.config.gd.dictionary_capacity()
        {
            return Err(GdError::InvalidConfig(format!(
                "persisted dictionary shape {}x{} does not match the engine's {} shards of {}",
                state.shard_count,
                state.shard_capacity,
                self.config.shards,
                self.config.gd.dictionary_capacity() / self.config.shards,
            )));
        }
        self.dict = ShardedDictionary::from_state(state)?;
        self.dict.set_journal(true);
        Ok(())
    }

    fn decompressor(&self) -> Result<Self::Decompressor> {
        GdBackendDecompressor::new(&self.config)
    }

    fn decompressor_for(config: &EngineConfig) -> Result<Self::Decompressor> {
        // Straight to the decoder — no sharded dictionary, worker scratch or
        // `available_parallelism` probe on the compression side to discard.
        GdBackendDecompressor::new(config)
    }
}

/// Builds the stream record for one classified chunk, with the same
/// statistics accounting as `GdCompressor::record_for_mut`.
fn record_for_outcome(
    gd: &GdConfig,
    enc: &EncodedChunk,
    outcome: ShardOutcome,
    stats: &mut CompressionStats,
) -> Record {
    let m = gd.m as usize;
    let e = gd.extra_bits();
    stats.chunks_in += 1;
    stats.bytes_in += gd.chunk_bytes as u64;
    match outcome {
        ShardOutcome::Known { id } => {
            stats.emitted_compressed += 1;
            stats.bytes_out += ((m + e + gd.id_bits as usize) as u64).div_ceil(8);
            Record::Ref {
                extra: enc.extra.clone(),
                deviation: enc.deviation,
                id,
            }
        }
        ShardOutcome::Learned { evicted, .. } => {
            if evicted {
                stats.evictions += 1;
            }
            stats.bases_learned += 1;
            stats.emitted_uncompressed += 1;
            stats.bytes_out += ((m + e + gd.k()) as u64).div_ceil(8);
            Record::NewBasis {
                extra: enc.extra.clone(),
                deviation: enc.deviation,
                basis: enc.basis.clone(),
            }
        }
    }
}

/// Decoder mirror of [`GdBackend`]: rebuilds the sharded dictionary from
/// `NewBasis` records (routing by the same basis hash) so engine streams
/// decode without out-of-band state — provided it is configured with the
/// *same shard count* the compressor used, just as [`GdConfig`] must match.
///
/// Every chunk leaves through the decoder's [`ChunkCache`] (see the module
/// docs): rebuilt from its basis once per identifier assignment, a copy, an
/// OR and a bit flip per reference.
#[derive(Debug)]
pub struct GdBackendDecompressor {
    dict: ShardedDictionary,
    stats: CompressionStats,
    cache: ChunkCache,
    gd: GdConfig,
}

impl GdBackendDecompressor {
    /// Builds a decompressor mirroring `config` (worker count and spawn
    /// policy are irrelevant to decoding; only `gd` and `shards` matter).
    pub fn new(config: &EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            dict: ShardedDictionary::for_config(&config.gd, config.shards)?,
            stats: CompressionStats::new(),
            cache: ChunkCache::new(&config.gd, config.shards)?,
            gd: config.gd,
        })
    }

    /// The sharded dictionary rebuilt so far.
    pub fn dictionary(&self) -> &ShardedDictionary {
        &self.dict
    }

    /// Applies one out-of-band dictionary update (an `Install`/`Remove`
    /// received on a control plane rather than learned in-band from a
    /// type 2 payload). Used to bootstrap a decoder from reseed frames
    /// after a warm restart compacted the journal away.
    pub fn apply_update(&mut self, update: &DictionaryUpdate) -> Result<()> {
        self.dict.apply_update(update)?;
        // A `Remove` needs nothing: the dictionary answers before the cache.
        if let UpdateOp::Install { id, .. } = update.op {
            let (shard, local) = self.dict.split_id(id);
            self.cache.invalidate(shard, local);
        }
        Ok(())
    }

    /// Decompresses one record, appending the restored bytes to `out`.
    pub fn decompress_record_into(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<()> {
        match record {
            Record::NewBasis {
                extra,
                deviation,
                basis,
            } => self.restore_new_basis(Carried::Record(extra), *deviation, basis, out),
            Record::Ref {
                extra,
                deviation,
                id,
            } => self.restore_ref(Carried::Record(extra), *deviation, *id, out),
            Record::RawTail { bytes } => {
                out.extend_from_slice(bytes);
                self.stats.chunks_decoded += 1;
                Ok(())
            }
        }
    }

    fn restore_new_basis(
        &mut self,
        carried: Carried<'_>,
        deviation: u64,
        basis: &zipline_gd::BitVec,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // Mirror the compressor's dictionary update: same hash, same shard,
        // same clock tick, so later Ref records resolve to the same
        // identifiers.
        let hash = basis.hash_words();
        let shard = self.dict.shard_of_hash(hash);
        let outcome = self.dict.learn(shard, basis.clone(), hash)?;
        let (shard, local) = self.dict.split_id(outcome.id());
        // `Known`: an `Install` announced it ahead of this payload, and the
        // slot it invalidated is filled once, below.
        if matches!(outcome, ShardOutcome::Learned { .. }) {
            self.cache.invalidate(shard, local);
        }
        self.cache
            .emit(shard, local, basis, deviation, carried, out)?;
        self.stats.chunks_decoded += 1;
        Ok(())
    }

    fn restore_ref(
        &mut self,
        carried: Carried<'_>,
        deviation: u64,
        id: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // The dictionary first: it alone knows whether `id` is live, and its
        // clock tick and recency move are what keep the mirror in step.
        let Some((shard, local, basis)) = self.dict.locate_id(id, true) else {
            self.stats.decode_failures += 1;
            return Err(GdError::UnknownIdentifier(id));
        };
        self.cache
            .emit(shard, local, basis, deviation, carried, out)?;
        self.stats.chunks_decoded += 1;
        Ok(())
    }
}

impl BackendDecompressor for GdBackendDecompressor {
    type Batch = CompressedStream;

    /// Decompresses a whole engine stream, symmetric to
    /// [`GdBackend::compress_batch`](CompressionBackend::compress_batch).
    fn decompress_batch(&mut self, stream: &CompressedStream) -> Result<Vec<u8>> {
        if stream.config.m != self.gd.m
            || stream.config.chunk_bytes != self.gd.chunk_bytes
            || stream.config.id_bits != self.gd.id_bits
        {
            return Err(GdError::InvalidConfig(
                "stream was compressed with a different configuration".into(),
            ));
        }
        let mut out = Vec::with_capacity(stream.records.len() * self.gd.chunk_bytes);
        for record in &stream.records {
            self.decompress_record_into(record, &mut out)?;
        }
        Ok(out)
    }

    /// Decodes one wire payload produced by the engine stream (see
    /// [`PipelinedStream`](crate::PipelinedStream)), appending the restored bytes to `out`. Type 2
    /// payloads teach the dictionary exactly like `NewBasis` records. The
    /// fields are read straight off the wire bytes ([`PayloadFields`]); no
    /// owned payload is built.
    fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if packet_type == PacketType::Raw {
            out.extend_from_slice(bytes);
            self.stats.chunks_decoded += 1;
            return Ok(());
        }
        let PayloadFields {
            deviation,
            carried,
            mut tail,
        } = PayloadFields::locate(&self.gd, packet_type, bytes)?;
        let carried = Carried::Wire(carried);
        if packet_type == PacketType::Uncompressed {
            let basis = tail.read_bitvec(self.gd.k())?;
            self.restore_new_basis(carried, deviation, &basis, out)
        } else {
            let id = tail.read_bits(self.gd.id_bits as usize)?;
            self.restore_ref(carried, deviation, id, out)
        }
    }

    /// Current statistics.
    fn stats(&self) -> &CompressionStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// The generic engine shell
// ---------------------------------------------------------------------------

/// Sharded, multi-core batch compressor, generic over its
/// [`CompressionBackend`]. `CompressionEngine` (no type argument) is the
/// GD-backed engine with the same stream semantics as
/// [`zipline_gd::GdCompressor`]; `CompressionEngine<DeflateBackend>` and
/// `CompressionEngine<PassthroughBackend>` drive the same streaming pipeline
/// through gzip and the identity codec. Construct through
/// [`EngineBuilder`](crate::EngineBuilder).
///
/// [`DeflateBackend`]: crate::DeflateBackend
/// [`PassthroughBackend`]: crate::PassthroughBackend
#[derive(Debug)]
pub struct CompressionEngine<B: CompressionBackend = GdBackend> {
    backend: B,
    /// Ingest pipeline shape, when the engine was built for
    /// [`PipelinedStream`](crate::PipelinedStream) via
    /// [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined).
    pipeline: Option<PipelineConfig>,
    /// The durability layer, when the engine was built with
    /// [`EngineBuilder::durable`](crate::EngineBuilder::durable). Streams
    /// constructed over the engine journal every batch through it.
    store: Option<EngineStore>,
    /// Recovery data from the store the engine was rehydrated from, held
    /// for the host path to consume once (replay boundary + committed
    /// wire journal).
    warm_start: Option<WarmStart>,
}

impl<B: CompressionBackend> CompressionEngine<B> {
    /// Wraps an already-built backend. [`EngineBuilder`](crate::EngineBuilder)
    /// is the validated front door; this is the escape hatch for backends
    /// with constructor parameters the builder doesn't know about.
    pub fn from_backend(backend: B) -> Self {
        Self {
            backend,
            pipeline: None,
            store: None,
            warm_start: None,
        }
    }

    /// The ingest pipeline shape, when configured (see
    /// [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined));
    /// `None` makes streams over the engine run inline.
    pub fn pipeline(&self) -> Option<PipelineConfig> {
        self.pipeline
    }

    /// Lets streams over the engine run a worker thread (or not). The builder's
    /// [`pipelined`](crate::EngineBuilder::pipelined) knob is the validated
    /// path; this setter is the matching escape hatch for engines built via
    /// [`from_backend`](Self::from_backend) — the configuration is still
    /// checked, at [`PipelinedStream`](crate::PipelinedStream) construction.
    pub fn set_pipeline(&mut self, pipeline: Option<PipelineConfig>) {
        self.pipeline = pipeline;
    }

    /// The backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Unwraps the engine back into its backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Attaches (or replaces) the durability layer. Streams constructed
    /// over the engine commit every batch through it before emitting.
    pub fn attach_store(&mut self, store: EngineStore) {
        self.store = Some(store);
    }

    /// The attached durability layer, if any.
    pub fn store(&self) -> Option<&EngineStore> {
        self.store.as_ref()
    }

    /// Detaches and returns the durability layer (used by
    /// [`PipelinedStream`](crate::PipelinedStream), which journals on the
    /// caller side while the engine may live on a worker thread).
    pub fn take_store(&mut self) -> Option<EngineStore> {
        self.store.take()
    }

    /// Stashes warm-restart recovery data (builder-internal).
    pub(crate) fn set_warm_start(&mut self, warm: WarmStart) {
        self.warm_start = Some(warm);
    }

    /// Takes the warm-restart recovery data, if the engine was rehydrated
    /// from a durable store: the committed batch boundary, the resume
    /// offset into the input, and the committed wire journal. Consumed
    /// once — typically by the host path to decide where to resume.
    pub fn take_warm_start(&mut self) -> Option<WarmStart> {
        self.warm_start.take()
    }

    /// Compresses one batch; see
    /// [`CompressionBackend::compress_batch`].
    pub fn compress_batch(&mut self, data: &[u8]) -> Result<B::Batch> {
        self.backend.compress_batch(data)
    }

    /// Compression statistics accumulated so far.
    pub fn stats(&self) -> CompressionStats {
        self.backend.stats()
    }

    /// Per-shard dictionary counters (empty for unsharded backends).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.backend.shard_stats()
    }

    /// Drains the journal into an ordered delta; see
    /// [`CompressionBackend::take_delta`].
    pub fn take_delta(&mut self) -> DictionaryDelta {
        self.backend.take_delta()
    }

    /// Builds the mirrored decompressor for this engine's streams.
    pub fn decompressor(&self) -> Result<EngineDecompressor<B>> {
        Ok(EngineDecompressor {
            inner: self.backend.decompressor()?,
        })
    }
}

impl CompressionEngine<GdBackend> {
    /// Builds a GD engine with a fresh sharded dictionary. Shorthand for
    /// `EngineBuilder::new().config(config).build()`.
    pub fn new(config: EngineConfig) -> Result<Self> {
        Ok(Self::from_backend(GdBackend::new(config)?))
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.backend.config()
    }

    /// The chunk codec.
    pub fn codec(&self) -> &ChunkCodec {
        self.backend.codec()
    }

    /// The sharded dictionary (e.g. to inspect learned bases).
    pub fn dictionary(&self) -> &ShardedDictionary {
        self.backend.dictionary()
    }

    /// Merged dictionary snapshot, for *cold* decoder sync; see
    /// [`GdBackend::dictionary_snapshot`].
    pub fn snapshot(&self) -> DictionarySnapshot {
        self.backend.dictionary_snapshot()
    }
}

/// Decoder mirror of [`CompressionEngine`], generic over the same backend:
/// `EngineDecompressor` (no type argument) rebuilds the GD sharded
/// dictionary from the stream itself, `EngineDecompressor<DeflateBackend>`
/// restores gzip members, and so on. Construct through
/// [`EngineBuilder::build_decompressor`](crate::EngineBuilder::build_decompressor)
/// or [`CompressionEngine::decompressor`].
///
/// [`DeflateBackend`]: crate::DeflateBackend
#[derive(Debug)]
pub struct EngineDecompressor<B: CompressionBackend = GdBackend> {
    inner: B::Decompressor,
}

impl<B: CompressionBackend> EngineDecompressor<B> {
    /// Wraps an already-built backend decompressor.
    pub fn from_backend_decompressor(inner: B::Decompressor) -> Self {
        Self { inner }
    }

    /// The backend decompressor (for backend-specific accessors).
    pub fn backend(&self) -> &B::Decompressor {
        &self.inner
    }

    /// Mutable access to the backend decompressor.
    pub fn backend_mut(&mut self) -> &mut B::Decompressor {
        &mut self.inner
    }

    /// Decompresses a whole batch, symmetric to
    /// [`CompressionEngine::compress_batch`].
    pub fn decompress_batch(&mut self, batch: &B::Batch) -> Result<Vec<u8>> {
        self.inner.decompress_batch(batch)
    }

    /// Decodes one wire payload produced by the engine stream, appending the
    /// restored bytes to `out`.
    pub fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.inner.restore_payload_into(packet_type, bytes, out)
    }

    /// Current statistics.
    pub fn stats(&self) -> &CompressionStats {
        self.inner.stats()
    }
}

impl EngineDecompressor<GdBackend> {
    /// Builds a GD decompressor mirroring `config` — by value, consistent
    /// with [`CompressionEngine::new`] (worker count and spawn policy are
    /// irrelevant to decoding; only `gd` and `shards` matter).
    pub fn new(config: EngineConfig) -> Result<Self> {
        Ok(Self {
            inner: GdBackendDecompressor::new(&config)?,
        })
    }

    /// The sharded dictionary rebuilt so far.
    pub fn dictionary(&self) -> &ShardedDictionary {
        self.inner.dictionary()
    }

    /// Decompresses one record, appending the restored bytes to `out`.
    pub fn decompress_record_into(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<()> {
        self.inner.decompress_record_into(record, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use zipline_gd::codec::GdCompressor;

    fn sensor_style_data(chunks: u32, chunk_bytes: usize) -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..chunks {
            let mut chunk = vec![0u8; chunk_bytes];
            chunk[0] = (i % 6) as u8;
            if chunk_bytes > 8 {
                chunk[8] = 0xA5;
            }
            data.extend_from_slice(&chunk);
        }
        data
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let mut c = EngineConfig::paper_default();
        c.validate().unwrap();
        c.workers = 0;
        assert!(c.validate().is_err());
        c.workers = 2;
        c.shards = 3;
        assert!(c.validate().is_err());
        c.shards = 1 << 16; // more shards than identifiers
        assert!(c.validate().is_err());
    }

    #[test]
    fn engine_roundtrip_with_tail() {
        let mut engine = EngineBuilder::new()
            .shards(8)
            .workers(4)
            .spawn(SpawnPolicy::Threads)
            .build()
            .unwrap();
        let mut data = sensor_style_data(300, 32);
        data.extend_from_slice(b"odd tail");
        let stream = engine.compress_batch(&data).unwrap();
        assert!(matches!(
            stream.records.last(),
            Some(Record::RawTail { .. })
        ));
        let mut dec = engine.decompressor().unwrap();
        assert_eq!(dec.decompress_batch(&stream).unwrap(), data);
        assert!(engine.stats().is_consistent());
        assert_eq!(engine.stats().chunks_in, 301);
    }

    #[test]
    fn stream_depends_only_on_shard_count() {
        let data = sensor_style_data(257, 32);
        let mut reference: Option<CompressedStream> = None;
        for workers in [1usize, 2, 3, 4, 7] {
            for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads] {
                let mut engine = EngineBuilder::new()
                    .shards(4)
                    .workers(workers)
                    .spawn(spawn)
                    .build()
                    .unwrap();
                let stream = engine.compress_batch(&data).unwrap();
                match &reference {
                    None => reference = Some(stream),
                    Some(r) => assert_eq!(
                        &stream, r,
                        "workers = {workers}, spawn = {spawn:?} changed the stream"
                    ),
                }
            }
        }
    }

    #[test]
    fn single_shard_single_worker_matches_gd_compressor() {
        let gd = GdConfig::paper_default();
        let mut data = sensor_style_data(200, 32);
        data.extend_from_slice(b"tail!");
        let mut engine = CompressionEngine::new(EngineConfig::single_threaded(gd)).unwrap();
        let engine_stream = engine.compress_batch(&data).unwrap();
        let mut reference = GdCompressor::new(&gd).unwrap();
        let reference_stream = reference.compress_batch(&data).unwrap();
        assert_eq!(engine_stream, reference_stream);
        assert_eq!(engine.stats(), *reference.stats());
    }

    #[test]
    fn snapshot_reflects_learned_bases() {
        let mut engine = EngineBuilder::new()
            .gd(GdConfig::for_parameters(3, 6).unwrap())
            .shards(4)
            .workers(2)
            .spawn(SpawnPolicy::Inline)
            .build()
            .unwrap();
        let data: Vec<u8> = (0..64u8).collect(); // 64 one-byte chunks
        engine.compress_batch(&data).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.len(), engine.stats().bases_learned as usize);
        assert_eq!(snap.shard_count, 4);
        let total_lookups: u64 = engine.shard_stats().iter().map(|s| s.lookups).sum();
        assert_eq!(total_lookups, 64);
    }

    #[test]
    fn the_chunk_cache_grows_with_the_bases_learned_not_the_identifier_space() {
        // The paper's 2^15 identifiers over 8 shards: identifiers start at
        // `shard * 4096`, so a cache laid out by global identifier would
        // span ~900 KiB after these 100 bases.
        let config = EngineConfig::paper_default();
        let mut engine = CompressionEngine::new(config).unwrap();
        let mut data = Vec::new();
        for i in 0..100u8 {
            for _ in 0..3 {
                let mut chunk = [0u8; 32];
                chunk[4] = i;
                chunk[9] = i;
                chunk[17] = i;
                data.extend_from_slice(&chunk);
            }
        }
        let stream = engine.compress_batch(&data).unwrap();
        assert_eq!(engine.stats().bases_learned, 100);
        assert!(engine.dictionary().shard_lens().iter().all(|&len| len > 0));

        let mut dec = engine.decompressor().unwrap();
        assert_eq!(dec.decompress_batch(&stream).unwrap(), data);
        assert_eq!(dec.inner.cache.held_bytes(), 100 * 32);
    }

    #[test]
    fn dictionary_state_roundtrips_through_the_backend_hooks() {
        let mut engine = EngineBuilder::new()
            .gd(GdConfig::for_parameters(8, 6).unwrap())
            .shards(4)
            .workers(2)
            .spawn(SpawnPolicy::Inline)
            .build()
            .unwrap();
        let data = sensor_style_data(300, 32);
        engine.compress_batch(&data).unwrap();
        let _ = engine.take_delta();
        let state = engine.backend().export_dictionary_state().unwrap();

        // Restoring into a fresh engine of the same shape reproduces the
        // stream of a continued run bit for bit.
        let mut restored = EngineBuilder::new()
            .gd(GdConfig::for_parameters(8, 6).unwrap())
            .shards(4)
            .workers(2)
            .spawn(SpawnPolicy::Inline)
            .build()
            .unwrap();
        restored
            .backend_mut()
            .restore_dictionary_state(&state)
            .unwrap();
        assert!(
            restored.dictionary().journal_enabled(),
            "a restored dictionary keeps journaling"
        );
        let more = sensor_style_data(100, 32);
        let a = engine.compress_batch(&more).unwrap();
        let b = restored.compress_batch(&more).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.take_delta(), restored.take_delta());

        // A mismatched shape is rejected loudly.
        let mut other = EngineBuilder::new()
            .gd(GdConfig::for_parameters(8, 6).unwrap())
            .shards(8)
            .build()
            .unwrap();
        assert!(other
            .backend_mut()
            .restore_dictionary_state(&state)
            .is_err());
    }
}
