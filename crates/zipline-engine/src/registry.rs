//! The codec registry: stable codec ids, self-describing containers, and
//! the two codec-routing backends built on top of them.
//!
//! PR 4's backend matrix proved no single codec wins everywhere (GD 0.134
//! vs deflate 0.234 on sensor data; deflate 0.082 vs GD 0.103 on DNS), and
//! the paper's "GD + secondary compressor" discussion observes that GD
//! deviations are low-entropy residue worth a second pass. This module
//! turns both observations into code:
//!
//! * [`CodecId`] — a stable one-byte codec tag. Tagged containers (the
//!   `*_TAGGED` record kinds of the wire protocol and the durable frame
//!   log) carry one per batch, so a decoder picks the right
//!   [`BackendDecompressor`] from the tag alone; *untagged* containers
//!   remain exactly what they were — the stream's fixed, negotiated
//!   backend — which keeps every pre-existing byte stream decodable.
//! * [`CodecRegistry`] — the id ↔ name ↔ decoder-factory table. The
//!   compression side stays monomorphized (`CompressionEngine<B>` and the
//!   server's `bind_*_with::<B>` entry points dispatch on the registry's
//!   names); the decode side is where dynamic dispatch is mandatory, and
//!   the registry's boxed factories build exactly that.
//! * [`HybridGdDeflateBackend`] ([`CODEC_HYBRID`]) — GD first, then gzip
//!   over the batch's serialized GD records, shipping the whole batch as
//!   one raw payload. The Huffman pass squeezes the identifier/deviation
//!   residue GD leaves behind.
//! * [`AutoBackend`] — samples a prefix of a batch whenever the decision
//!   turns on deflate's estimate, probes the registered candidates on a
//!   budget, and routes the whole batch to the winner (with hysteresis so
//!   stable workloads don't flap). Its batches
//!   are the reason tags exist: consecutive batches may use different
//!   codecs, so [`CompressionBackend::tags_batches`] is `true` and every
//!   emitted payload carries the routed codec's id.
//! * [`RegistryDecompressor`] — the dynamic decode path: give it a tag
//!   (or let it fall back to the stream's default codec) and it lazily
//!   builds and drives the right decoder. `FlowDecoderPool` and the
//!   client-side decode paths delegate here; fixed-backend streams keep
//!   the generic `EngineDecompressor<B>` fast path.
//!
//! # Codec id space
//!
//! | id | name | backend |
//! |----|------|---------|
//! | 1 | `gd` | [`GdBackend`] |
//! | 2 | `deflate` | [`DeflateBackend`] |
//! | 3 | `passthrough` | [`PassthroughBackend`](crate::backend::PassthroughBackend) |
//! | 4 | `hybrid` | [`HybridGdDeflateBackend`] |
//!
//! Id `0` is reserved on every wire as "untagged"; ids are never reused.
//! [`AutoBackend`] deliberately has no id of its own: it is a router, not
//! a codec, and each batch it emits is tagged with the id of the codec
//! that actually produced the bytes.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::backend::{
    BackendDecompressor, CompressionBackend, DeflateBackend, DeflateDecompressor,
    PassthroughDecompressor,
};
use crate::engine::{EngineConfig, GdBackend, GdBackendDecompressor};
use crate::shard::{
    DictionaryDelta, DictionarySnapshot, DictionaryState, DictionaryUpdate, ShardStats,
};
use zipline_deflate::{DeflateEncoder, Level};
use zipline_gd::codec::CompressedStream;
use zipline_gd::error::{GdError, Result};
use zipline_gd::packet::PacketType;
use zipline_gd::stats::CompressionStats;

/// Stable one-byte codec tag; see the module docs for the id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodecId(pub u8);

impl CodecId {
    /// The raw wire byte.
    pub fn as_u8(self) -> u8 {
        self.0
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The sharded Generalized Deduplication codec ([`GdBackend`]).
pub const CODEC_GD: CodecId = CodecId(1);
/// One gzip member per batch ([`DeflateBackend`]).
pub const CODEC_DEFLATE: CodecId = CodecId(2);
/// The identity codec ([`PassthroughBackend`](crate::backend::PassthroughBackend)).
pub const CODEC_PASSTHROUGH: CodecId = CodecId(3);
/// GD then gzip over the GD residue ([`HybridGdDeflateBackend`]).
pub const CODEC_HYBRID: CodecId = CodecId(4);

/// Maps a wire byte to its registered codec id; `None` for `0` (the
/// untagged sentinel) and for ids no registry entry covers.
pub fn codec_from_u8(byte: u8) -> Option<CodecId> {
    let id = CodecId(byte);
    match id {
        CODEC_GD | CODEC_DEFLATE | CODEC_PASSTHROUGH | CODEC_HYBRID => Some(id),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// CodecCursor
// ---------------------------------------------------------------------------

/// A shared cell through which a stream publishes the codec tag of the
/// batch it is currently emitting.
///
/// The stream sinks (`FnMut(PacketType, &[u8])`) predate codec tags, and
/// widening them would break every caller; instead the stream sets this
/// cursor immediately before replaying a batch's payloads, and a sink that
/// cares (the server's wire framers, the flow router's event queue) clones
/// the cursor and samples it per payload. Fixed backends never set it, so
/// the cursor reads `None` — untagged — on every pre-existing path.
#[derive(Debug, Clone, Default)]
pub struct CodecCursor(Arc<AtomicU8>);

impl CodecCursor {
    /// A fresh cursor reading `None`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the codec of the batch about to be emitted (`None` =
    /// untagged).
    pub fn set(&self, codec: Option<CodecId>) {
        self.0
            .store(codec.map_or(0, CodecId::as_u8), Ordering::Relaxed);
    }

    /// The codec tag of the batch currently being emitted.
    pub fn get(&self) -> Option<CodecId> {
        codec_from_u8(self.0.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// CodecRegistry
// ---------------------------------------------------------------------------

/// One registry row: a stable id, its command-line/debug name, and the
/// boxed factory that builds the codec's decoder for a given engine
/// configuration.
pub struct CodecEntry {
    /// The codec's stable wire tag.
    pub id: CodecId,
    /// The codec's stable name (`--backend` values, debug output).
    pub name: &'static str,
    decoder: DecoderFactory,
}

/// Boxed per-codec decoder constructor held by a [`CodecEntry`].
type DecoderFactory = Box<dyn Fn(&EngineConfig) -> Result<AnyDecompressor> + Send + Sync>;

/// The id → codec table; see the module docs.
pub struct CodecRegistry {
    entries: Vec<CodecEntry>,
}

impl CodecRegistry {
    /// The standard registry covering every codec this crate ships.
    pub fn standard() -> Self {
        let mut registry = Self {
            entries: Vec::new(),
        };
        registry.entry(CODEC_GD, "gd", |config| {
            Ok(AnyDecompressor::Gd(GdBackendDecompressor::new(config)?))
        });
        registry.entry(CODEC_DEFLATE, "deflate", |_| {
            Ok(AnyDecompressor::Deflate(DeflateDecompressor::default()))
        });
        registry.entry(CODEC_PASSTHROUGH, "passthrough", |_| {
            Ok(AnyDecompressor::Passthrough(
                PassthroughDecompressor::default(),
            ))
        });
        registry.entry(CODEC_HYBRID, "hybrid", |config| {
            Ok(AnyDecompressor::Hybrid(HybridDecompressor::new(config)?))
        });
        registry
    }

    fn entry(
        &mut self,
        id: CodecId,
        name: &'static str,
        decoder: impl Fn(&EngineConfig) -> Result<AnyDecompressor> + Send + Sync + 'static,
    ) {
        self.entries.push(CodecEntry {
            id,
            name,
            decoder: Box::new(decoder),
        });
    }

    /// True when the registry has an entry for `id`.
    pub fn contains(&self, id: CodecId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Every registered codec id, in id order.
    pub fn ids(&self) -> Vec<CodecId> {
        let mut ids: Vec<CodecId> = self.entries.iter().map(|e| e.id).collect();
        ids.sort();
        ids
    }

    /// The registered name of `id`.
    pub fn name(&self, id: CodecId) -> Option<&'static str> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.name)
    }

    /// Resolves a codec name (e.g. a `--backend` value) to its id.
    pub fn parse_name(&self, name: &str) -> Option<CodecId> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.id)
    }

    /// Builds the decoder registered for `id`, or the typed unknown-codec
    /// error when no entry covers it.
    pub fn decompressor(&self, id: CodecId, config: &EngineConfig) -> Result<AnyDecompressor> {
        match self.entries.iter().find(|e| e.id == id) {
            Some(entry) => (entry.decoder)(config),
            None => Err(GdError::UnknownCodec(id.as_u8())),
        }
    }
}

impl fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.entries.iter().map(|e| (e.id, e.name)))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// HybridGdDeflateBackend
// ---------------------------------------------------------------------------

/// GD → deflate hybrid: each batch runs through the sharded GD codec
/// first, the batch's serialized GD records (identifier/deviation residue
/// included) are concatenated into one length-delimited container, and the
/// container is gzipped and shipped as a single raw payload.
///
/// The inner GD dictionary is the *same* kind of shared decoder state a
/// plain GD stream has, so the live-sync, snapshot and warm-restart hooks
/// all delegate to it — with one adjustment: because the whole batch
/// collapses into one wire payload, every dictionary update's `at`
/// coordinate is remapped to `0` so all control traffic precedes the
/// payload it makes decodable.
#[derive(Debug)]
pub struct HybridGdDeflateBackend {
    gd: GdBackend,
    level: Level,
    encoder: DeflateEncoder,
    config: EngineConfig,
    stats: CompressionStats,
    /// Recycled container/member buffers, same discipline as
    /// [`DeflateBackend`].
    spare: Vec<Vec<u8>>,
    container: Vec<u8>,
}

impl HybridGdDeflateBackend {
    /// A hybrid backend over `config`'s GD shape, gzipping at `level`.
    pub fn new(config: EngineConfig, level: Level) -> Result<Self> {
        Ok(Self {
            gd: GdBackend::new(config)?,
            level,
            encoder: DeflateEncoder::default(),
            config,
            stats: CompressionStats::new(),
            spare: Vec::new(),
            container: Vec::new(),
        })
    }
}

/// Container record header: packet type byte, as in the persist layer.
fn packet_code(packet_type: PacketType) -> u8 {
    packet_type.number()
}

fn packet_from(code: u8) -> Option<PacketType> {
    match code {
        1 => Some(PacketType::Raw),
        2 => Some(PacketType::Uncompressed),
        3 => Some(PacketType::Compressed),
        _ => None,
    }
}

impl CompressionBackend for HybridGdDeflateBackend {
    type Batch = Vec<u8>;
    type Decompressor = HybridDecompressor;

    fn from_engine_config(config: &EngineConfig) -> Result<Self> {
        Self::new(*config, Level::Default)
    }

    fn codec_id(&self) -> CodecId {
        CODEC_HYBRID
    }

    fn unit_bytes(&self) -> usize {
        self.gd.unit_bytes()
    }

    fn compress_batch(&mut self, data: &[u8]) -> Result<Self::Batch> {
        let mut member = self.spare.pop().unwrap_or_default();
        member.clear();
        if data.is_empty() {
            return Ok(member);
        }
        let stream = self.gd.compress_batch(data)?;
        let container = &mut self.container;
        container.clear();
        self.gd.emit_batch(stream, &mut |packet_type, bytes| {
            container.push(packet_code(packet_type));
            container.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            container.extend_from_slice(bytes);
        })?;
        self.encoder
            .gzip_into(&self.container, self.level, &mut member);
        self.stats.chunks_in += 1;
        self.stats.emitted_raw += 1;
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
        // Wire accounting is this backend's own (post-gzip bytes); the
        // learning counters belong to the inner GD dictionary.
        let inner = self.gd.stats();
        let mut stats = self.stats;
        stats.bases_learned = inner.bases_learned;
        stats.evictions = inner.evictions;
        stats.digests_sent = inner.digests_sent;
        stats
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.gd.shard_stats()
    }

    fn snapshot(&self) -> Option<DictionarySnapshot> {
        self.gd.snapshot()
    }

    fn supports_live_sync(&self) -> bool {
        true
    }

    fn take_delta(&mut self) -> DictionaryDelta {
        let mut delta = self.gd.take_delta();
        // The whole batch is one wire payload at position 0: every update
        // must precede it.
        for update in &mut delta.updates {
            update.at = 0;
        }
        delta
    }

    fn export_dictionary_state(&self) -> Option<DictionaryState> {
        self.gd.export_dictionary_state()
    }

    fn restore_dictionary_state(&mut self, state: &DictionaryState) -> Result<()> {
        self.gd.restore_dictionary_state(state)
    }

    fn decompressor(&self) -> Result<Self::Decompressor> {
        HybridDecompressor::new(&self.config)
    }

    fn decompressor_for(config: &EngineConfig) -> Result<Self::Decompressor> {
        HybridDecompressor::new(config)
    }
}

/// Decoder mirror of [`HybridGdDeflateBackend`]: gunzips the container,
/// then replays the inner GD records (in-band basis learning included)
/// through a [`GdBackendDecompressor`].
#[derive(Debug)]
pub struct HybridDecompressor {
    gd: GdBackendDecompressor,
    stats: CompressionStats,
    scratch: Vec<u8>,
}

impl HybridDecompressor {
    /// Builds a decoder mirroring `config` (the GD shape must match the
    /// encoder's, exactly as for a plain GD stream).
    pub fn new(config: &EngineConfig) -> Result<Self> {
        Ok(Self {
            gd: GdBackendDecompressor::new(config)?,
            stats: CompressionStats::new(),
            scratch: Vec::new(),
        })
    }

    /// Applies one out-of-band dictionary update to the inner GD decoder
    /// (reseed traffic after a warm restart).
    pub fn apply_update(&mut self, update: &DictionaryUpdate) -> Result<()> {
        self.gd.apply_update(update)
    }
}

impl BackendDecompressor for HybridDecompressor {
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
                "hybrid containers travel as raw (type 1) payloads, got type {}",
                packet_type.number()
            )));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let result = (|| {
            zipline_deflate::gzip_decompress_into(bytes, &mut scratch)
                .map_err(|e| GdError::Malformed(format!("hybrid container: {e}")))?;
            let mut offset = 0usize;
            while offset < scratch.len() {
                if scratch.len() - offset < 5 {
                    return Err(GdError::Malformed(
                        "hybrid container: truncated record header".into(),
                    ));
                }
                let inner_type = packet_from(scratch[offset]).ok_or_else(|| {
                    GdError::Malformed(format!(
                        "hybrid container: bad packet type {}",
                        scratch[offset]
                    ))
                })?;
                let len = u32::from_le_bytes([
                    scratch[offset + 1],
                    scratch[offset + 2],
                    scratch[offset + 3],
                    scratch[offset + 4],
                ]) as usize;
                offset += 5;
                if scratch.len() - offset < len {
                    return Err(GdError::Malformed(
                        "hybrid container: truncated record body".into(),
                    ));
                }
                self.gd
                    .restore_payload_into(inner_type, &scratch[offset..offset + len], out)?;
                offset += len;
            }
            Ok(())
        })();
        self.scratch = scratch;
        match result {
            Ok(()) => {
                self.stats.chunks_decoded += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.decode_failures += 1;
                Err(e)
            }
        }
    }

    fn stats(&self) -> &CompressionStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// AutoBackend
// ---------------------------------------------------------------------------

/// Probe/routing knobs for [`AutoBackend`].
#[derive(Debug, Clone, Copy)]
pub struct AutoConfig {
    /// Prefix bytes gzipped per batch to estimate the deflate ratio.
    pub sample_bytes: usize,
    /// While routed away from GD, re-measure GD on full batches every this
    /// many batches so a shifting workload can win the route back.
    pub probe_interval: u64,
    /// Consecutive GD batches per measurement window — warm-up and probes
    /// alike. A dictionary codec's first batch on unseen data is training
    /// cost (basis installs), not steady state; only the ratios *after*
    /// the first batch of a window feed the estimator, so one
    /// install-heavy batch cannot condemn the codec.
    pub probe_batches: u64,
    /// Relative ratio margin a challenger must win by before the route
    /// switches (`0.05` = 5% better) — the anti-flap hysteresis.
    pub hysteresis: f64,
    /// EWMA smoothing for measured GD ratios (weight of the newest
    /// observation).
    pub ewma_alpha: f64,
}

impl Default for AutoConfig {
    fn default() -> Self {
        Self {
            sample_bytes: 1024,
            probe_interval: 256,
            probe_batches: 2,
            hysteresis: 0.05,
            ewma_alpha: 0.3,
        }
    }
}

/// One routed batch: the chosen codec's native batch, remembering the
/// route so [`CompressionBackend::batch_codec_id`] can tag it.
#[derive(Debug)]
pub enum AutoBatch {
    /// Routed to GD; `input_len` feeds the measured-ratio estimator at
    /// emission time.
    Gd {
        /// The GD-compressed batch.
        stream: CompressedStream,
        /// Uncompressed input length of the batch.
        input_len: usize,
        /// Whether this batch's ratio feeds the estimator. The first batch
        /// of a GD window pays the dictionary's training cost (installs)
        /// and would poison the steady-state estimate.
        measure: bool,
    },
    /// Routed to deflate: one gzip member.
    Deflate(Vec<u8>),
}

/// Routes each batch to the codec expected to compress it best.
///
/// Per batch, the candidates are costed on a budget: deflate's ratio is
/// estimated by gzipping a prefix sample ([`AutoConfig::sample_bytes`]) —
/// only on the batches whose decision compares it, not during the cold
/// start, a measurement window or a periodic probe;
/// GD — whose ratio depends on dictionary state, not batch content alone —
/// is estimated from an EWMA of its measured ratios, refreshed by a forced
/// full-batch probe window every [`AutoConfig::probe_interval`] batches
/// while deflate holds the route. Measurement windows span
/// [`AutoConfig::probe_batches`] consecutive GD batches and the *first*
/// batch of each window never feeds the EWMA: it pays the dictionary's
/// training cost (basis installs for content GD has not seen), which says
/// nothing about steady state. A challenger takes the route only by
/// beating the incumbent's estimate by the [`AutoConfig::hysteresis`]
/// margin. The very first batch routes to deflate — it is the only
/// candidate with a usable estimate before GD has ever been measured.
///
/// Every batch goes *wholly* to one codec and is tagged with that codec's
/// id ([`CompressionBackend::tags_batches`] is `true`), so a
/// [`RegistryDecompressor`] reconstructs the stream from the tags alone.
/// The candidate set is deliberately `{gd, deflate}`: one stateful codec,
/// so the dictionary every GD-routed batch builds on is unambiguous.
#[derive(Debug)]
pub struct AutoBackend {
    gd: GdBackend,
    deflate: DeflateBackend,
    auto: AutoConfig,
    current: CodecId,
    batches: u64,
    /// Consecutive GD-routed batches ending at the previous batch — 0
    /// whenever deflate held the route last, so the next GD batch is the
    /// (unmeasured) head of a fresh window.
    gd_run: u64,
    /// EWMA of measured steady-state GD ratios; `None` until a GD window
    /// has produced a warm (non-first) batch.
    gd_ratio: Option<f64>,
    /// Route changes so far (observability + flap tests).
    switches: u64,
    probe_scratch: Vec<u8>,
}

impl AutoBackend {
    /// An auto-routing backend over `config`'s GD shape with the given
    /// probe knobs.
    pub fn new(config: EngineConfig, auto: AutoConfig) -> Result<Self> {
        Ok(Self {
            gd: GdBackend::new(config)?,
            deflate: DeflateBackend::default(),
            auto,
            current: CODEC_GD,
            batches: 0,
            gd_run: 0,
            gd_ratio: None,
            switches: 0,
            probe_scratch: Vec::new(),
        })
    }

    /// The codec currently holding the route.
    pub fn current_codec(&self) -> CodecId {
        self.current
    }

    /// Route changes since construction.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Deflate's estimated ratio on `data`: its prefix sample, gzipped.
    /// Costs a compression, so `route` asks only where the answer decides.
    fn deflate_estimate(&mut self, data: &[u8]) -> f64 {
        let sample = &data[..data.len().min(self.auto.sample_bytes.max(1))];
        self.probe_scratch.clear();
        self.deflate
            .encoder
            .gzip_into(sample, Level::Fast, &mut self.probe_scratch);
        self.probe_scratch.len() as f64 / sample.len().max(1) as f64
    }

    /// Picks the codec for the next batch; see the type docs for the
    /// policy. The second element says whether a GD batch should feed the
    /// EWMA: the first GD batch after any deflate batch pays dictionary
    /// (re-)training cost and would poison the steady-state estimate.
    fn route(&mut self, data: &[u8]) -> (CodecId, bool) {
        let choice = match self.gd_ratio {
            // The stateful candidate has no steady-state measurement yet.
            // Batch 0 goes to deflate — GD through a cold dictionary is
            // pure training cost on the wire — then GD holds the route
            // until a warm batch produces the first measurement.
            None => {
                if self.batches == 0 {
                    CODEC_DEFLATE
                } else {
                    CODEC_GD
                }
            }
            Some(gd_est) => {
                if self.current == CODEC_GD && self.gd_run < self.auto.probe_batches.max(1) {
                    // Mid-window: keep routing GD until the window has
                    // produced a warm measurement, else the probe paid its
                    // training cost for nothing.
                    CODEC_GD
                } else if self.current == CODEC_GD {
                    if self.deflate_estimate(data) < gd_est * (1.0 - self.auto.hysteresis) {
                        CODEC_DEFLATE
                    } else {
                        CODEC_GD
                    }
                } else if self.batches.is_multiple_of(self.auto.probe_interval.max(1)) {
                    // Periodic GD probe window refreshes the EWMA that
                    // would otherwise go stale while deflate holds the
                    // route. The window spans `probe_batches` batches
                    // because the first one only re-trains the dictionary.
                    CODEC_GD
                } else if gd_est < self.deflate_estimate(data) * (1.0 - self.auto.hysteresis) {
                    CODEC_GD
                } else {
                    CODEC_DEFLATE
                }
            }
        };
        if choice != self.current {
            self.switches += 1;
            self.current = choice;
        }
        self.batches += 1;
        let measure = choice == CODEC_GD && self.gd_run >= 1;
        if choice == CODEC_GD {
            self.gd_run += 1;
        } else {
            self.gd_run = 0;
        }
        (choice, measure)
    }
}

impl CompressionBackend for AutoBackend {
    type Batch = AutoBatch;
    type Decompressor = AutoDecompressor;

    fn from_engine_config(config: &EngineConfig) -> Result<Self> {
        Self::new(*config, AutoConfig::default())
    }

    fn codec_id(&self) -> CodecId {
        CODEC_GD
    }

    fn batch_codec_id(&self, batch: &Self::Batch) -> CodecId {
        match batch {
            AutoBatch::Gd { .. } => CODEC_GD,
            AutoBatch::Deflate(_) => CODEC_DEFLATE,
        }
    }

    fn tags_batches(&self) -> bool {
        true
    }

    fn codec_ids(&self) -> Vec<CodecId> {
        vec![CODEC_GD, CODEC_DEFLATE]
    }

    fn unit_bytes(&self) -> usize {
        self.gd.unit_bytes()
    }

    fn compress_batch(&mut self, data: &[u8]) -> Result<Self::Batch> {
        if data.is_empty() {
            return Ok(AutoBatch::Deflate(self.deflate.compress_batch(data)?));
        }
        match self.route(data) {
            (CODEC_DEFLATE, _) => Ok(AutoBatch::Deflate(self.deflate.compress_batch(data)?)),
            (_, measure) => Ok(AutoBatch::Gd {
                stream: self.gd.compress_batch(data)?,
                input_len: data.len(),
                measure,
            }),
        }
    }

    fn emit_batch(
        &mut self,
        batch: Self::Batch,
        emit: &mut dyn FnMut(PacketType, &[u8]),
    ) -> Result<()> {
        match batch {
            AutoBatch::Gd {
                stream,
                input_len,
                measure,
            } => {
                let mut wire_bytes = 0usize;
                self.gd.emit_batch(stream, &mut |packet_type, bytes| {
                    wire_bytes += bytes.len();
                    emit(packet_type, bytes);
                })?;
                if measure && input_len > 0 {
                    let measured = wire_bytes as f64 / input_len as f64;
                    self.gd_ratio = Some(match self.gd_ratio {
                        None => measured,
                        Some(ewma) => ewma + self.auto.ewma_alpha * (measured - ewma),
                    });
                }
                Ok(())
            }
            AutoBatch::Deflate(member) => self.deflate.emit_batch(member, emit),
        }
    }

    fn stats(&self) -> CompressionStats {
        let mut stats = self.gd.stats();
        stats.merge(&self.deflate.stats());
        stats
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.gd.shard_stats()
    }

    fn snapshot(&self) -> Option<DictionarySnapshot> {
        self.gd.snapshot()
    }

    fn supports_live_sync(&self) -> bool {
        true
    }

    fn take_delta(&mut self) -> DictionaryDelta {
        self.gd.take_delta()
    }

    fn export_dictionary_state(&self) -> Option<DictionaryState> {
        self.gd.export_dictionary_state()
    }

    fn restore_dictionary_state(&mut self, state: &DictionaryState) -> Result<()> {
        self.gd.restore_dictionary_state(state)
    }

    fn decompressor(&self) -> Result<Self::Decompressor> {
        AutoDecompressor::new(self.gd.config())
    }

    fn decompressor_for(config: &EngineConfig) -> Result<Self::Decompressor> {
        AutoDecompressor::new(config)
    }
}

/// Decoder mirror of [`AutoBackend`] for in-process batch roundtrips.
///
/// Wire payloads from an auto-routed stream are ambiguous without their
/// codec tags (a GD raw tail and a gzip member are both "raw"), so the
/// tagged decode path is [`RegistryDecompressor`]; this type covers the
/// batch-level [`BackendDecompressor`] contract the generic engine needs.
#[derive(Debug)]
pub struct AutoDecompressor {
    gd: GdBackendDecompressor,
    deflate: DeflateDecompressor,
    stats: CompressionStats,
}

impl AutoDecompressor {
    /// Builds a decoder mirroring `config`'s GD shape.
    pub fn new(config: &EngineConfig) -> Result<Self> {
        Ok(Self {
            gd: GdBackendDecompressor::new(config)?,
            deflate: DeflateDecompressor::default(),
            stats: CompressionStats::new(),
        })
    }
}

impl BackendDecompressor for AutoDecompressor {
    type Batch = AutoBatch;

    fn decompress_batch(&mut self, batch: &Self::Batch) -> Result<Vec<u8>> {
        match batch {
            AutoBatch::Gd { stream, .. } => self.gd.decompress_batch(stream),
            AutoBatch::Deflate(member) => self.deflate.decompress_batch(member),
        }
    }

    fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        match packet_type {
            // Processed payloads are unambiguously GD.
            PacketType::Uncompressed | PacketType::Compressed => {
                self.gd.restore_payload_into(packet_type, bytes, out)
            }
            // A raw payload could be a GD tail or a gzip member: only the
            // per-batch tag disambiguates. Refuse rather than guess.
            PacketType::Raw => {
                self.stats.decode_failures += 1;
                Err(GdError::Malformed(
                    "auto-routed raw payloads need a codec tag; decode through \
                     RegistryDecompressor::restore_payload_tagged"
                        .into(),
                ))
            }
        }
    }

    fn stats(&self) -> &CompressionStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// RegistryDecompressor
// ---------------------------------------------------------------------------

/// A decoder built by a [`CodecRegistry`] factory.
#[derive(Debug)]
pub enum AnyDecompressor {
    /// [`GdBackendDecompressor`].
    Gd(GdBackendDecompressor),
    /// [`DeflateDecompressor`].
    Deflate(DeflateDecompressor),
    /// [`PassthroughDecompressor`].
    Passthrough(PassthroughDecompressor),
    /// [`HybridDecompressor`].
    Hybrid(HybridDecompressor),
}

impl AnyDecompressor {
    fn restore_payload_into(
        &mut self,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        match self {
            AnyDecompressor::Gd(dec) => dec.restore_payload_into(packet_type, bytes, out),
            AnyDecompressor::Deflate(dec) => dec.restore_payload_into(packet_type, bytes, out),
            AnyDecompressor::Passthrough(dec) => dec.restore_payload_into(packet_type, bytes, out),
            AnyDecompressor::Hybrid(dec) => dec.restore_payload_into(packet_type, bytes, out),
        }
    }

    fn apply_update(&mut self, update: &DictionaryUpdate) -> Result<()> {
        match self {
            AnyDecompressor::Gd(dec) => dec.apply_update(update),
            AnyDecompressor::Hybrid(dec) => dec.apply_update(update),
            // Stateless codecs have no dictionary to update.
            AnyDecompressor::Deflate(_) | AnyDecompressor::Passthrough(_) => Ok(()),
        }
    }

    fn stats(&self) -> &CompressionStats {
        match self {
            AnyDecompressor::Gd(dec) => dec.stats(),
            AnyDecompressor::Deflate(dec) => dec.stats(),
            AnyDecompressor::Passthrough(dec) => dec.stats(),
            AnyDecompressor::Hybrid(dec) => dec.stats(),
        }
    }
}

/// The dynamic decode path: routes each payload to the decoder its codec
/// tag names, building decoders lazily from the registry's factories.
///
/// Untagged payloads go to the stream's `default` codec — which is exactly
/// the v2 compatibility rule ("untagged = the stream's fixed backend") and
/// the fast path for fixed-backend streams. `FlowDecoderPool` delegates
/// every flow's decode here; `EngineDecompressor<AutoBackend>` reaches the
/// same dispatch through [`AutoDecompressor`].
#[derive(Debug)]
pub struct RegistryDecompressor {
    registry: CodecRegistry,
    config: EngineConfig,
    default: CodecId,
    built: BTreeMap<CodecId, AnyDecompressor>,
}

impl fmt::Debug for CodecEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodecEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl RegistryDecompressor {
    /// A registry decoder whose untagged payloads decode as `default`.
    /// Fails with the typed unknown-codec error if `default` has no
    /// registry entry.
    pub fn new(config: EngineConfig, default: CodecId) -> Result<Self> {
        let registry = CodecRegistry::standard();
        if !registry.contains(default) {
            return Err(GdError::UnknownCodec(default.as_u8()));
        }
        Ok(Self {
            registry,
            config,
            default,
            built: BTreeMap::new(),
        })
    }

    /// The codec untagged payloads decode as.
    pub fn default_codec(&self) -> CodecId {
        self.default
    }

    fn decoder(&mut self, id: CodecId) -> Result<&mut AnyDecompressor> {
        match self.built.entry(id) {
            Entry::Occupied(built) => Ok(built.into_mut()),
            Entry::Vacant(slot) => Ok(slot.insert(self.registry.decompressor(id, &self.config)?)),
        }
    }

    /// Decodes one payload: tagged payloads dispatch on their tag,
    /// untagged payloads on the stream's default codec. Unknown tags fail
    /// with [`GdError::UnknownCodec`] before any decoder runs.
    pub fn restore_payload_tagged(
        &mut self,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let id = codec.unwrap_or(self.default);
        self.decoder(id)?
            .restore_payload_into(packet_type, bytes, out)
    }

    /// Applies one out-of-band dictionary update to every stateful decoder
    /// in play (building the default codec's decoder if none is yet — a
    /// reseed may precede the first payload).
    pub fn apply_update(&mut self, update: &DictionaryUpdate) -> Result<()> {
        self.decoder(self.default)?;
        for dec in self.built.values_mut() {
            dec.apply_update(update)?;
        }
        Ok(())
    }

    /// Decoder statistics summed across every decoder built so far.
    pub fn stats(&self) -> CompressionStats {
        let mut stats = CompressionStats::new();
        for dec in self.built.values() {
            stats.merge(dec.stats());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::engine::SpawnPolicy;

    fn test_config() -> EngineConfig {
        let mut config = EngineConfig::paper_default();
        config.shards = 4;
        config.workers = 1;
        config.spawn = SpawnPolicy::Inline;
        config
    }

    #[test]
    fn codec_ids_are_stable_and_roundtrip_through_bytes() {
        for (id, byte) in [
            (CODEC_GD, 1u8),
            (CODEC_DEFLATE, 2),
            (CODEC_PASSTHROUGH, 3),
            (CODEC_HYBRID, 4),
        ] {
            assert_eq!(id.as_u8(), byte);
            assert_eq!(codec_from_u8(byte), Some(id));
        }
        assert_eq!(codec_from_u8(0), None, "0 is the untagged sentinel");
        assert_eq!(codec_from_u8(0xEE), None);
    }

    #[test]
    fn registry_maps_ids_and_names_both_ways() {
        let registry = CodecRegistry::standard();
        assert_eq!(
            registry.ids(),
            vec![CODEC_GD, CODEC_DEFLATE, CODEC_PASSTHROUGH, CODEC_HYBRID]
        );
        for (id, name) in [
            (CODEC_GD, "gd"),
            (CODEC_DEFLATE, "deflate"),
            (CODEC_PASSTHROUGH, "passthrough"),
            (CODEC_HYBRID, "hybrid"),
        ] {
            assert!(registry.contains(id));
            assert_eq!(registry.name(id), Some(name));
            assert_eq!(registry.parse_name(name), Some(id));
        }
        assert_eq!(
            registry.parse_name("auto"),
            None,
            "auto is a router, not a codec"
        );
        assert!(matches!(
            registry.decompressor(CodecId(0xEE), &test_config()),
            Err(GdError::UnknownCodec(0xEE))
        ));
    }

    #[test]
    fn codec_cursor_publishes_and_clears() {
        let cursor = CodecCursor::new();
        assert_eq!(cursor.get(), None);
        cursor.set(Some(CODEC_HYBRID));
        assert_eq!(
            cursor.clone().get(),
            Some(CODEC_HYBRID),
            "clones share state"
        );
        cursor.set(None);
        assert_eq!(cursor.get(), None);
    }

    #[test]
    fn hybrid_roundtrips_and_beats_plain_gd_on_redundant_data() {
        let config = test_config();
        // Sensor-style data: few bases, noisy deviations.
        let mut data = Vec::new();
        for i in 0..400u32 {
            let mut chunk = vec![0u8; config.gd.chunk_bytes];
            chunk[0] = (i % 6) as u8;
            chunk[8] = 0xA5;
            if i % 5 == 0 {
                chunk[20] ^= 0x10;
            }
            data.extend_from_slice(&chunk);
        }

        let mut gd = GdBackend::new(config).unwrap();
        let mut gd_bytes = 0usize;
        let stream = gd.compress_batch(&data).unwrap();
        gd.emit_batch(stream, &mut |_, b| gd_bytes += b.len())
            .unwrap();

        let mut hybrid = HybridGdDeflateBackend::new(config, Level::Default).unwrap();
        let member = hybrid.compress_batch(&data).unwrap();
        assert!(
            member.len() < gd_bytes,
            "gzip over GD residue ({}) beats plain GD ({})",
            member.len(),
            gd_bytes
        );

        let mut dec = hybrid.decompressor().unwrap();
        assert_eq!(dec.decompress_batch(&member).unwrap(), data);
        let mut emitted = Vec::new();
        hybrid
            .emit_batch(member, &mut |pt, bytes| {
                assert_eq!(pt, PacketType::Raw);
                emitted.push(bytes.to_vec());
            })
            .unwrap();
        assert_eq!(emitted.len(), 1, "one payload per hybrid batch");
    }

    #[test]
    fn hybrid_remaps_all_updates_to_position_zero() {
        let config = test_config();
        let mut hybrid = HybridGdDeflateBackend::new(config, Level::Fast).unwrap();
        let data = vec![3u8; config.gd.chunk_bytes * 8];
        let member = hybrid.compress_batch(&data).unwrap();
        let delta = hybrid.take_delta();
        assert!(!delta.updates.is_empty(), "a fresh basis installs");
        assert!(delta.updates.iter().all(|u| u.at == 0));
        hybrid.emit_batch(member, &mut |_, _| {}).unwrap();
    }

    #[test]
    fn auto_routes_whole_batches_and_tags_them() {
        let config = test_config();
        let mut auto = AutoBackend::new(config, AutoConfig::default()).unwrap();
        assert!(auto.tags_batches());
        assert_eq!(auto.codec_ids(), vec![CODEC_GD, CODEC_DEFLATE]);

        // Batch 0 goes to deflate — GD through a cold dictionary is pure
        // training cost on the wire — then the warm-up window routes GD
        // until its second batch produces the first steady-state
        // measurement.
        let sensor = vec![7u8; config.gd.chunk_bytes * 64];
        let batch = auto.compress_batch(&sensor).unwrap();
        assert_eq!(auto.batch_codec_id(&batch), CODEC_DEFLATE);
        let mut dec = auto.decompressor().unwrap();
        assert_eq!(dec.decompress_batch(&batch).unwrap(), sensor);
        auto.emit_batch(batch, &mut |_, _| {}).unwrap();
        for _ in 0..2 {
            let batch = auto.compress_batch(&sensor).unwrap();
            assert_eq!(auto.batch_codec_id(&batch), CODEC_GD);
            assert_eq!(dec.decompress_batch(&batch).unwrap(), sensor);
            auto.emit_batch(batch, &mut |_, _| {}).unwrap();
        }

        // Incompressible-for-GD, gzip-friendly data: every chunk a new
        // basis, but long byte runs deflate loves.
        let mut texty = Vec::new();
        for i in 0..64u32 {
            let mut chunk = vec![b'a' + (i % 20) as u8; config.gd.chunk_bytes];
            for (j, byte) in chunk.iter_mut().enumerate() {
                *byte = ((i as usize * 131 + j * 7) % 11) as u8 + b'a';
            }
            texty.extend_from_slice(&chunk);
        }
        let mut routed_deflate = false;
        for _ in 0..8 {
            let batch = auto.compress_batch(&texty).unwrap();
            let codec = auto.batch_codec_id(&batch);
            assert_eq!(dec.decompress_batch(&batch).unwrap(), texty);
            auto.emit_batch(batch, &mut |_, _| {}).unwrap();
            if codec == CODEC_DEFLATE {
                routed_deflate = true;
                break;
            }
        }
        assert!(routed_deflate, "gzip-friendly data re-routes to deflate");
        assert!(auto.switches() >= 1);
    }

    #[test]
    fn registry_decompressor_dispatches_on_tags_and_types_unknown_ids() {
        let config = test_config();
        let mut gd = GdBackend::new(config).unwrap();
        let mut deflate = DeflateBackend::default();
        let mut reg = RegistryDecompressor::new(config, CODEC_GD).unwrap();
        assert_eq!(reg.default_codec(), CODEC_GD);

        let gd_data = vec![9u8; config.gd.chunk_bytes * 4];
        let stream = gd.compress_batch(&gd_data).unwrap();
        let mut payloads = Vec::new();
        gd.emit_batch(stream, &mut |pt, bytes| payloads.push((pt, bytes.to_vec())))
            .unwrap();
        let mut out = Vec::new();
        for (pt, bytes) in &payloads {
            // Untagged → the stream default (GD); an explicit GD tag works
            // identically.
            reg.restore_payload_tagged(None, *pt, bytes, &mut out)
                .unwrap();
        }
        assert_eq!(out, gd_data);

        let text = b"the quick brown fox jumps over the lazy dog ".repeat(40);
        let member = deflate.compress_batch(&text).unwrap();
        out.clear();
        reg.restore_payload_tagged(Some(CODEC_DEFLATE), PacketType::Raw, &member, &mut out)
            .unwrap();
        assert_eq!(out, text);

        assert!(matches!(
            reg.restore_payload_tagged(
                Some(CodecId(0x7F)),
                PacketType::Raw,
                &member,
                &mut Vec::new()
            ),
            Err(GdError::UnknownCodec(0x7F))
        ));
        assert!(matches!(
            RegistryDecompressor::new(config, CodecId(0)),
            Err(GdError::UnknownCodec(0))
        ));
    }

    #[test]
    fn registry_decompressor_applies_reseeds_before_first_payload() {
        let config = test_config();
        let mut engine = EngineBuilder::new().config(config).build().unwrap();
        let data = vec![0x42u8; config.gd.chunk_bytes * 4];
        let stream = engine.compress_batch(&data).unwrap();
        let updates = engine.take_delta().updates;
        assert!(!updates.is_empty());

        let mut payloads = Vec::new();
        engine
            .backend_mut()
            .emit_batch(stream, &mut |pt, bytes| payloads.push((pt, bytes.to_vec())))
            .unwrap();

        // A second batch of the same data compresses to pure refs; a fresh
        // registry decoder that only sees the reseed + the refs must still
        // resolve them.
        let stream = engine.compress_batch(&data).unwrap();
        let mut refs = Vec::new();
        engine
            .backend_mut()
            .emit_batch(stream, &mut |pt, bytes| refs.push((pt, bytes.to_vec())))
            .unwrap();

        let mut reg = RegistryDecompressor::new(config, CODEC_GD).unwrap();
        for update in &updates {
            reg.apply_update(update).unwrap();
        }
        let mut out = Vec::new();
        for (pt, bytes) in &refs {
            reg.restore_payload_tagged(None, *pt, bytes, &mut out)
                .unwrap();
        }
        assert_eq!(out, data);
        assert!(reg.stats().chunks_decoded > 0);
    }
}
