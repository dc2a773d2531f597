//! The backend abstraction: one engine, many codecs.
//!
//! The ZipLine paper evaluates Generalized Deduplication *against*
//! DEFLATE-class compressors (its Figure 3 gzip baseline). This module is
//! the seam that lets our engine run that comparison live instead of
//! offline: [`CompressionBackend`] captures exactly what
//! [`CompressionEngine`](crate::CompressionEngine),
//! [`PipelinedStream`](crate::PipelinedStream) and the `zipline` crate's
//! host path need from a codec, so the same sharded, streaming, decoder-
//! syncing pipeline drives GD ([`GdBackend`](crate::GdBackend)), DEFLATE/gzip
//! ([`DeflateBackend`]) and a no-op floor ([`PassthroughBackend`]) — and,
//! later, persistent/mmap shard stores or the switch's `ExactMatchTable`
//! without another engine rewrite.
//!
//! # The backend contract
//!
//! A backend is a *batch* codec with a wire form:
//!
//! * [`compress_batch`](CompressionBackend::compress_batch) turns a buffer
//!   (a whole number of [`unit_bytes`](CompressionBackend::unit_bytes),
//!   except for the final flush) into an opaque
//!   [`Batch`](CompressionBackend::Batch);
//! * [`emit_batch`](CompressionBackend::emit_batch) serializes that batch
//!   into wire payloads through recycled scratch, calling the sink **once
//!   per record in input order** — the record index is the `at` coordinate
//!   the live-sync machinery interleaves
//!   [`DictionaryUpdate`](crate::DictionaryUpdate)s against;
//! * the mirrored [`Decompressor`](CompressionBackend::Decompressor)
//!   restores batches and wire payloads byte-exactly.
//!
//! # What decoder sync requires — and what delta-less backends opt out of
//!
//! A backend that maintains shared decoder state (GD's `identifier → basis`
//! dictionary) answers [`supports_live_sync`](CompressionBackend::supports_live_sync)
//! with `true`, journals every mutation from the moment it is built, and
//! drains an ordered [`DictionaryDelta`] per batch through
//! [`take_delta`](CompressionBackend::take_delta); every stream batch
//! carries that delta. For the delta ordering rules to hold across the
//! trait boundary the backend must guarantee, per batch:
//!
//! 1. every update's `at` is the input-order record index of the record at
//!    which the mutation happened, and `emit_batch` emits records in exactly
//!    that order (so "apply every update with `at <= i` before record `i`"
//!    resolves every reference);
//! 2. a `Remove` that recycles an identifier is journaled immediately before
//!    the `Install` that reuses it, at the same `at`;
//! 3. the delta — like the compressed bytes — is a pure function of the
//!    input and the backend's sharding shape, never of worker count or spawn
//!    policy.
//!
//! Self-contained backends such as [`DeflateBackend`] (every gzip member
//! carries its own Huffman tables and window) and [`PassthroughBackend`]
//! have no shared decoder state: they keep the default no-op hooks
//! ([`supports_live_sync`](CompressionBackend::supports_live_sync) is
//! `false`, deltas are empty, snapshots are `None`), and a control plane
//! attached to them simply never sees traffic.

use crate::engine::EngineConfig;
use crate::registry::{CodecId, CODEC_DEFLATE, CODEC_PASSTHROUGH};
use crate::shard::{DictionaryDelta, DictionarySnapshot, DictionaryState, ShardStats};
use zipline_deflate::{DeflateEncoder, Level};
use zipline_gd::error::{GdError, Result};
use zipline_gd::packet::PacketType;
use zipline_gd::stats::CompressionStats;

/// A batch codec the generic engine can drive; see the module docs for the
/// contract.
pub trait CompressionBackend {
    /// Opaque result of compressing one batch, consumed by
    /// [`Self::emit_batch`] or the mirrored decompressor.
    type Batch;
    /// The mirrored decoder for this backend's batches and wire payloads.
    type Decompressor: BackendDecompressor<Batch = Self::Batch>;

    /// Builds the backend a given engine configuration implies (the
    /// [`EngineBuilder`](crate::EngineBuilder) uses this when no explicit
    /// backend instance was supplied). Backends that ignore parts of the
    /// configuration — deflate has no shards — simply don't read them.
    fn from_engine_config(config: &EngineConfig) -> Result<Self>
    where
        Self: Sized;

    /// The backend's stable [`CodecId`] — the tag a self-describing
    /// container carries so a decoder can pick the right
    /// [`BackendDecompressor`] without out-of-band knowledge. Routing
    /// backends ([`AutoBackend`](crate::AutoBackend)) return the id of
    /// their stateful core; the per-batch decision is exposed through
    /// [`Self::batch_codec_id`] instead.
    fn codec_id(&self) -> CodecId;

    /// The codec one specific batch was routed to. Fixed backends always
    /// answer [`Self::codec_id`]; only routing backends override this.
    fn batch_codec_id(&self, batch: &Self::Batch) -> CodecId {
        let _ = batch;
        self.codec_id()
    }

    /// True when this backend's output must carry per-batch codec tags to
    /// be decodable (i.e. different batches may use different codecs).
    /// Fixed backends stay `false` and keep the untagged fast path: their
    /// containers are decoded by the stream's negotiated backend alone.
    fn tags_batches(&self) -> bool {
        false
    }

    /// Every codec id this backend may emit — what a hello advertises so
    /// the peer can check its decoder pool covers the stream.
    fn codec_ids(&self) -> Vec<CodecId> {
        vec![self.codec_id()]
    }

    /// Size in bytes of the backend's indivisible input unit. Batches passed
    /// to [`Self::compress_batch`] hold a whole number of units except for
    /// the final flush (whose ragged tail the backend must still represent
    /// losslessly). GD returns its chunk size; byte-stream backends return 1.
    fn unit_bytes(&self) -> usize;

    /// Compresses one batch into the backend's intermediate form, reusing
    /// internal scratch across calls.
    fn compress_batch(&mut self, data: &[u8]) -> Result<Self::Batch>;

    /// Serializes a batch into wire payloads through recycled scratch,
    /// calling `emit` once per record in input order.
    fn emit_batch(
        &mut self,
        batch: Self::Batch,
        emit: &mut dyn FnMut(PacketType, &[u8]),
    ) -> Result<()>;

    /// Compression statistics accumulated so far.
    fn stats(&self) -> CompressionStats;

    /// Per-shard dictionary counters; empty for unsharded backends.
    fn shard_stats(&self) -> Vec<ShardStats> {
        Vec::new()
    }

    /// Point-in-time snapshot of the backend's decoder-sync state, for
    /// *cold* decoder sync; `None` for backends without shared state.
    fn snapshot(&self) -> Option<DictionarySnapshot> {
        None
    }

    /// True when the backend maintains shared decoder state and therefore
    /// journals every mutation for [`Self::take_delta`].
    fn supports_live_sync(&self) -> bool {
        false
    }

    /// Drains the mutation journal accumulated since the last call into an
    /// ordered [`DictionaryDelta`]; always empty for delta-less backends.
    fn take_delta(&mut self) -> DictionaryDelta {
        DictionaryDelta::default()
    }

    /// Full behavioural state of the backend's shared dictionary, for the
    /// persistence layer's checkpoints; `None` for backends without shared
    /// state (they have nothing to persist — a durable stream still
    /// journals their frames, and recovery is the frame log alone).
    fn export_dictionary_state(&self) -> Option<DictionaryState> {
        None
    }

    /// Restores the backend's shared dictionary from a persisted
    /// [`DictionaryState`] (a warm restart). Backends without shared state
    /// reject the call: a store that carries dictionary state for them is
    /// mismatched.
    fn restore_dictionary_state(&mut self, state: &DictionaryState) -> Result<()> {
        let _ = state;
        Err(GdError::InvalidConfig(
            "this backend has no dictionary state to restore".into(),
        ))
    }

    /// Builds the mirrored decompressor for streams this backend produces.
    fn decompressor(&self) -> Result<Self::Decompressor>;

    /// Builds the decompressor a given engine configuration implies,
    /// *without* building the compression side. The default constructs and
    /// discards a backend; backends with expensive state (GD's sharded
    /// dictionary and worker scratch) override it to go straight to the
    /// decoder.
    fn decompressor_for(config: &EngineConfig) -> Result<Self::Decompressor>
    where
        Self: Sized,
    {
        Self::from_engine_config(config)?.decompressor()
    }
}

/// Decoder mirror of a [`CompressionBackend`].
pub trait BackendDecompressor {
    /// The backend's batch type.
    type Batch;

    /// Decompresses one batch back to the original bytes.
    fn decompress_batch(&mut self, batch: &Self::Batch) -> Result<Vec<u8>>;

    /// Decodes one wire payload produced by the backend's
    /// [`emit_batch`](CompressionBackend::emit_batch), appending the
    /// restored bytes to `out`.
    fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()>;

    /// Decoder statistics accumulated so far.
    fn stats(&self) -> &CompressionStats;
}

/// Maps a deflate error into the engine's error type.
fn deflate_error(e: zipline_deflate::DeflateError) -> GdError {
    GdError::Malformed(format!("deflate backend: {e}"))
}

// ---------------------------------------------------------------------------
// DeflateBackend
// ---------------------------------------------------------------------------

/// DEFLATE/gzip backend: each engine batch becomes one gzip member
/// (RFC 1952), emitted as a single raw (type 1) wire payload.
///
/// This is the paper's Figure 3 baseline running *inside* the engine
/// pipeline instead of offline. Two deliberate asymmetries with
/// [`GdBackend`](crate::GdBackend) mirror the paper's argument for why
/// DEFLATE cannot run in a switch data plane:
///
/// * a DEFLATE stream is inherently serial (back-references reach into the
///   member's own history), so the engine's worker/shard axes do not fan a
///   member out — output bytes are a pure function of `(data, batch
///   boundaries)` and worker count never changes them. What this backend
///   recycles is the encoder's matcher tables and token buffer
///   ([`DeflateEncoder`]) and its member scratch pool: one buffer per
///   in-flight batch, reused across batches;
/// * every member is self-contained (it carries its own Huffman tables), so
///   there is no shared decoder state to sync: the backend is delta-less
///   and opts out of the live-sync hooks entirely.
///
/// Batch size is the ratio lever: DEFLATE "requires a minimum of 3 kB to
/// compress data" (the paper's phrasing), so feed it kilobyte-scale batches
/// — e.g. a [`PipelinedStream`](crate::PipelinedStream) with
/// `batch_units == 8192` (`unit_bytes` is 1).
#[derive(Debug, Clone)]
pub struct DeflateBackend {
    level: Level,
    /// Reused across members; [`AutoBackend`](crate::AutoBackend) borrows
    /// it for its prefix estimate.
    pub(crate) encoder: DeflateEncoder,
    stats: CompressionStats,
    /// Recycled member buffers: `compress_batch` pops one, `emit_batch`
    /// returns it after serialization.
    spare: Vec<Vec<u8>>,
}

impl DeflateBackend {
    /// A backend compressing at the given DEFLATE level.
    pub fn new(level: Level) -> Self {
        Self {
            level,
            encoder: DeflateEncoder::default(),
            stats: CompressionStats::new(),
            spare: Vec::new(),
        }
    }

    /// The configured DEFLATE level.
    pub fn level(&self) -> Level {
        self.level
    }

    fn take_buffer(&mut self) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }
}

impl Default for DeflateBackend {
    fn default() -> Self {
        Self::new(Level::Default)
    }
}

impl CompressionBackend for DeflateBackend {
    type Batch = Vec<u8>;
    type Decompressor = DeflateDecompressor;

    fn from_engine_config(_config: &EngineConfig) -> Result<Self> {
        Ok(Self::default())
    }

    fn codec_id(&self) -> CodecId {
        CODEC_DEFLATE
    }

    fn unit_bytes(&self) -> usize {
        1
    }

    fn compress_batch(&mut self, data: &[u8]) -> Result<Self::Batch> {
        let mut member = self.take_buffer();
        if data.is_empty() {
            return Ok(member);
        }
        self.encoder.gzip_into(data, self.level, &mut member);
        self.stats.chunks_in += 1;
        self.stats.emitted_compressed += 1;
        self.stats.bytes_in += data.len() as u64;
        self.stats.bytes_out += member.len() as u64;
        Ok(member)
    }

    fn emit_batch(
        &mut self,
        batch: Self::Batch,
        emit: &mut dyn FnMut(PacketType, &[u8]),
    ) -> Result<()> {
        if !batch.is_empty() {
            emit(PacketType::Raw, &batch);
        }
        self.spare.push(batch);
        Ok(())
    }

    fn stats(&self) -> CompressionStats {
        self.stats
    }

    fn decompressor(&self) -> Result<Self::Decompressor> {
        Ok(DeflateDecompressor::default())
    }
}

/// Decoder mirror of [`DeflateBackend`]: every payload is one gzip member,
/// restored through the crate's streaming `gzip_decompress_into` (CRC-32
/// checked per member) into the caller's accumulator.
#[derive(Debug, Clone, Default)]
pub struct DeflateDecompressor {
    stats: CompressionStats,
}

impl BackendDecompressor for DeflateDecompressor {
    type Batch = Vec<u8>;

    fn decompress_batch(&mut self, batch: &Self::Batch) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        if !batch.is_empty() {
            self.restore_payload_into(PacketType::Raw, batch, &mut out)?;
        }
        Ok(out)
    }

    fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if packet_type != PacketType::Raw {
            self.stats.decode_failures += 1;
            return Err(GdError::Malformed(format!(
                "deflate streams carry only raw (type 1) payloads, got type {}",
                packet_type.number()
            )));
        }
        match zipline_deflate::gzip_decompress_into(bytes, out) {
            Ok(_) => {
                self.stats.chunks_decoded += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.decode_failures += 1;
                Err(deflate_error(e))
            }
        }
    }

    fn stats(&self) -> &CompressionStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// PassthroughBackend
// ---------------------------------------------------------------------------

/// The identity backend: batches are copied to the wire verbatim as raw
/// (type 1) payloads.
///
/// Useless as a compressor by construction — which is the point: it is the
/// ratio floor every real backend must beat (the "No op" baseline of the
/// paper's Figure 4), and the cheapest way to exercise the full engine →
/// stream → host-path → deployment wire plumbing in tests without any codec
/// behavior in the way.
#[derive(Debug, Clone, Default)]
pub struct PassthroughBackend {
    stats: CompressionStats,
    /// Recycled batch buffers, same discipline as [`DeflateBackend`].
    spare: Vec<Vec<u8>>,
}

impl PassthroughBackend {
    /// A fresh passthrough backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CompressionBackend for PassthroughBackend {
    type Batch = Vec<u8>;
    type Decompressor = PassthroughDecompressor;

    fn from_engine_config(_config: &EngineConfig) -> Result<Self> {
        Ok(Self::new())
    }

    fn codec_id(&self) -> CodecId {
        CODEC_PASSTHROUGH
    }

    fn unit_bytes(&self) -> usize {
        1
    }

    fn compress_batch(&mut self, data: &[u8]) -> Result<Self::Batch> {
        let mut batch = self.spare.pop().unwrap_or_default();
        batch.clear();
        batch.extend_from_slice(data);
        if !data.is_empty() {
            self.stats.chunks_in += 1;
            self.stats.emitted_raw += 1;
            self.stats.bytes_in += data.len() as u64;
            self.stats.bytes_out += data.len() as u64;
        }
        Ok(batch)
    }

    fn emit_batch(
        &mut self,
        batch: Self::Batch,
        emit: &mut dyn FnMut(PacketType, &[u8]),
    ) -> Result<()> {
        if !batch.is_empty() {
            emit(PacketType::Raw, &batch);
        }
        self.spare.push(batch);
        Ok(())
    }

    fn stats(&self) -> CompressionStats {
        self.stats
    }

    fn decompressor(&self) -> Result<Self::Decompressor> {
        Ok(PassthroughDecompressor::default())
    }
}

/// Decoder mirror of [`PassthroughBackend`]: appends payload bytes as-is.
#[derive(Debug, Clone, Default)]
pub struct PassthroughDecompressor {
    stats: CompressionStats,
}

impl BackendDecompressor for PassthroughDecompressor {
    type Batch = Vec<u8>;

    fn decompress_batch(&mut self, batch: &Self::Batch) -> Result<Vec<u8>> {
        if !batch.is_empty() {
            self.stats.chunks_decoded += 1;
        }
        Ok(batch.clone())
    }

    fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if packet_type != PacketType::Raw {
            self.stats.decode_failures += 1;
            return Err(GdError::Malformed(format!(
                "passthrough streams carry only raw (type 1) payloads, got type {}",
                packet_type.number()
            )));
        }
        out.extend_from_slice(bytes);
        self.stats.chunks_decoded += 1;
        Ok(())
    }

    fn stats(&self) -> &CompressionStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deflate_backend_roundtrips_and_recycles() {
        let mut backend = DeflateBackend::default();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 23) as u8).collect();
        let member = backend.compress_batch(&data).unwrap();
        assert!(member.len() < data.len(), "redundant data compresses");
        let mut dec = backend.decompressor().unwrap();
        assert_eq!(dec.decompress_batch(&member).unwrap(), data);

        // Emission hands the buffer back to the pool.
        let mut emitted = Vec::new();
        backend
            .emit_batch(member, &mut |pt, bytes| {
                assert_eq!(pt, PacketType::Raw);
                emitted.push(bytes.to_vec());
            })
            .unwrap();
        assert_eq!(emitted.len(), 1);
        assert_eq!(backend.spare.len(), 1);
        let recycled = backend.compress_batch(&data).unwrap();
        assert_eq!(recycled, emitted[0], "recycled buffer compresses the same");
        assert!(backend.spare.is_empty());

        let stats = backend.stats();
        assert!(stats.is_consistent());
        assert_eq!(stats.chunks_in, 2);
        assert!(stats.compression_ratio().unwrap() < 1.0);
    }

    #[test]
    fn deflate_decoder_rejects_processed_payloads_and_corruption() {
        let mut backend = DeflateBackend::new(Level::Fast);
        let mut dec = backend.decompressor().unwrap();
        let mut out = Vec::new();
        assert!(dec
            .restore_payload_into(PacketType::Compressed, &[0u8; 8], &mut out)
            .is_err());
        let mut member = backend.compress_batch(b"hello hello hello").unwrap();
        let n = member.len();
        member[n - 1] ^= 0xFF;
        assert!(dec
            .restore_payload_into(PacketType::Raw, &member, &mut out)
            .is_err());
        assert_eq!(dec.stats().decode_failures, 2);
        assert!(out.is_empty(), "failed decodes append nothing");
    }

    #[test]
    fn passthrough_is_the_identity() {
        let mut backend = PassthroughBackend::new();
        let data = b"anything at all".to_vec();
        let batch = backend.compress_batch(&data).unwrap();
        assert_eq!(batch, data);
        let mut dec = backend.decompressor().unwrap();
        assert_eq!(dec.decompress_batch(&batch).unwrap(), data);
        let stats = backend.stats();
        assert_eq!(stats.bytes_in, stats.bytes_out);
        assert!(stats.is_consistent());
        assert!(!backend.supports_live_sync());
        assert!(backend.take_delta().is_empty());
        assert!(backend.snapshot().is_none());
    }

    #[test]
    fn empty_batches_emit_nothing() {
        let mut deflate = DeflateBackend::default();
        let batch = deflate.compress_batch(&[]).unwrap();
        let mut calls = 0;
        deflate.emit_batch(batch, &mut |_, _| calls += 1).unwrap();
        assert_eq!(calls, 0);
        assert_eq!(deflate.stats(), CompressionStats::new());
    }
}
