//! The engine-backed host-side path, generic over the compression backend.
//!
//! The paper's deployment compresses *in the encoder switch*; this module is
//! the complementary arrangement the `zipline-engine` crate enables: end
//! hosts run the sharded [`CompressionEngine`] themselves and put wire-ready
//! ZipLine frames (types 2 and 3) straight onto the network, so the encoder
//! switch only forwards and the decoder switch restores.
//!
//! [`EngineHostPath<B>`] drives any
//! [`CompressionBackend`] through the
//! same framing and the same switch programs: the GD default emits
//! ZipLine-EtherType frames plus live-sync control traffic, while
//! `EngineHostPath<DeflateBackend>` (the paper's gzip baseline, one member
//! per batch) and `EngineHostPath<PassthroughBackend>` (the ratio floor)
//! emit raw frames that the deployment forwards and restores losslessly —
//! their streams are self-contained, so no control traffic exists to sync.
//! The mirrored [`EngineHostPath::decompressor`] restores whatever backend
//! the path was built with.
//!
//! The decoder's `identifier → basis` table is kept in sync by **streaming
//! incremental installs**: the engine journals every dictionary mutation
//! (install, evict) into a per-batch
//! [`DictionaryDelta`](zipline_engine::DictionaryDelta), and the
//! [`EngineControlPlane`] turns each update into the out-of-band
//! [`ControlMessage`](crate::control::ControlMessage) format —
//! `InstallMapping` frames carrying a monotonic nonce, `RemoveMapping`
//! frames echoing the nonce of the install they retire. The control frames
//! are emitted *in-band*, interleaved into the output frame sequence
//! immediately before the data frame at whose position the mutation
//! happened, so on an in-order channel every compressed frame is preceded by
//! the control traffic that makes it decodable. This is the paper's
//! two-phase install guarantee (section 5) in streaming form, and it holds
//! even when the dictionary churns past capacity and recycles identifiers —
//! the regime where a one-shot post-hoc snapshot of the dictionary would
//! alias earlier frames to later bases.
//!
//! # Ingest
//!
//! Every push runs through one [`PipelinedStream`]: the path hands it the
//! engine for the call and takes it back when the stream finishes. With
//! [`HostPathConfig::pipeline_depth`] set (and a spawn policy that allows
//! it) record accumulation overlaps with batch compression on a dedicated
//! engine worker behind a bounded, backpressured channel; without it every
//! batch compresses on the calling thread. The emitted frame sequence is
//! the same bits either way, so the choice is purely a latency/throughput
//! one.
//!
//! # Durability and warm restarts
//!
//! By default the engine's dictionary lives only in memory: a host crash
//! loses it, and the only way back in sync with a decoder that kept its
//! state is a full cold start (fresh dictionary on both sides). Setting
//! [`HostPathConfig::durable`] to a directory makes the engine crash-safe
//! instead: every committed batch appends its dictionary delta to an event
//! log and its wire frames to a journaled frame log, both sealed by a
//! batch-boundary commit marker, and sinks only ever observe **committed**
//! batches; a finished push compacts the log to one checkpoint. Rebuilding
//! the path over the same directory is then a *warm restart*:
//!
//! * the dictionary rehydrates to the last committed batch boundary (torn,
//!   truncated or bit-flipped log tails are detected by per-record CRCs and
//!   cut at the last valid commit — or rejected loudly when committed
//!   records are missing);
//! * [`EngineHostPath::warm_start`] reports the recovered boundary
//!   (`batches`, `bytes_in`, `frames`) plus the committed frames, so the
//!   caller knows where to resume feeding input and what a transport that
//!   lost the crash-window tail may need re-sent;
//! * [`EngineHostPath::take_restart_sync_frames`] carries in-band
//!   re-installs for every live mapping under fresh nonces: a **surviving
//!   decoder** needs them so its nonce table matches the restarted control
//!   plane (otherwise later evictions are discarded as stale and recycled
//!   identifiers alias), and a **restarted decoder** is cold-started by the
//!   very same frames.
//!
//! Durability is process-crash-grade (writes reach the OS in commit order).
//!
//! [`CompressionEngine`]: zipline_engine::CompressionEngine

use std::cell::RefCell;
use std::path::PathBuf;

use crate::engine_control::{EngineControlPlane, EngineControlStats};
use crate::error::Result;
use zipline_engine::{
    CompressionBackend, CompressionEngine, DictionaryUpdate, EngineBuilder, EngineConfig,
    EngineDecompressor, GdBackend, PayloadSinks, PipelinedStream, StreamSummary, SyncPolicy,
    WarmStart,
};
use zipline_gd::packet::PacketType;
use zipline_net::ethernet::EthernetFrame;
use zipline_net::mac::MacAddress;
use zipline_traces::ChunkWorkload;

/// Boxed payload sink used by the shared stream harness.
type FrameSink<'a> = Box<dyn FnMut(PacketType, &[u8]) + 'a>;

/// Boxed control sink used by the shared stream harness.
type ControlSink<'a> = Box<dyn FnMut(&DictionaryUpdate) + 'a>;

/// Configuration of an [`EngineHostPath`].
#[derive(Debug, Clone)]
pub struct HostPathConfig {
    /// Engine parameters (GD config, shard and worker counts).
    pub engine: EngineConfig,
    /// Chunks per engine batch fed by the stream front-end.
    pub batch_chunks: usize,
    /// Source MAC stamped on emitted frames.
    pub src: MacAddress,
    /// Destination MAC stamped on emitted frames.
    pub dst: MacAddress,
    /// EtherType for raw (type 1) frames; processed frames carry the
    /// ZipLine EtherTypes.
    pub raw_ethertype: u16,
    /// Opt-in pipelined ingest: when `Some(depth)`, the engine is built
    /// with [`EngineBuilder::pipelined`] and pushes may compress on an
    /// engine worker thread (depth = batches in flight before `push`
    /// blocks; see the module docs). `None` compresses on the calling
    /// thread.
    pub pipeline_depth: Option<usize>,
    /// Opt-in durability: when `Some(dir)`, the engine opens (or creates)
    /// a crash-safe store there — an append-only dictionary event log with
    /// periodic checkpoints plus a journaled frame log with batch-boundary
    /// commit markers ([`EngineBuilder::durable`]). Rebuilding the path
    /// over the same directory is a **warm restart**: the dictionary
    /// rehydrates from disk and the control plane re-announces the live
    /// mappings in-band (see the module docs' durability note). `None`
    /// keeps the engine in-memory only.
    pub durable: Option<PathBuf>,
    /// [`StoreOptions::checkpoint_cadence`](zipline_engine::StoreOptions::checkpoint_cadence)
    /// of the durable store. No push consults it: the stream commits each
    /// batch without a checkpoint and compacts to one when the push
    /// finishes. Ignored without [`Self::durable`].
    pub checkpoint_cadence: u64,
    /// Durability barrier of the store's commits ([`SyncPolicy::Flush`]
    /// survives process crash, [`SyncPolicy::Data`] adds `fdatasync` and
    /// survives power loss). Ignored without [`Self::durable`].
    pub sync: SyncPolicy,
}

impl HostPathConfig {
    /// Paper GD parameters, 8 shards, 4 workers, 256-chunk batches, ingest
    /// on the calling thread.
    pub fn paper_default() -> Self {
        Self {
            engine: EngineConfig::paper_default(),
            batch_chunks: 256,
            src: MacAddress::local(2),
            dst: MacAddress::local(1),
            raw_ethertype: zipline_net::ethernet::ETHERTYPE_IPV4,
            pipeline_depth: None,
            durable: None,
            checkpoint_cadence: 1,
            sync: SyncPolicy::Flush,
        }
    }

    /// `paper_default` with pipelined ingest at `depth` batches in flight.
    pub fn pipelined(depth: usize) -> Self {
        Self {
            pipeline_depth: Some(depth),
            ..Self::paper_default()
        }
    }

    /// `paper_default` with a durable store at `dir` (see
    /// [`Self::durable`]).
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        Self {
            durable: Some(dir.into()),
            ..Self::paper_default()
        }
    }

    /// The engine builder this configuration describes. Public so other
    /// front-ends over the same configuration — the network server, most
    /// prominently — construct byte-identical engines to the in-process
    /// host path.
    pub fn engine_builder(&self) -> EngineBuilder {
        let mut builder = EngineBuilder::new().config(self.engine);
        if let Some(depth) = self.pipeline_depth {
            builder = builder.pipelined(depth);
        }
        if let Some(dir) = &self.durable {
            builder = builder
                .durable(dir.clone())
                .checkpoint_cadence(self.checkpoint_cadence)
                .sync_policy(self.sync);
        }
        builder
    }
}

/// A host NIC-side compression pipeline: data in, wire-ready frames out
/// (for the GD default, interleaved with the control frames that keep a
/// decoder live-synced). Generic over the engine's
/// [`CompressionBackend`]; see the module docs.
pub struct EngineHostPath<B: CompressionBackend = GdBackend> {
    /// `None` only transiently, while a stream owns the engine (and
    /// permanently if such a stream fails — see [`Self::compress_via`]).
    engine: Option<CompressionEngine<B>>,
    control: EngineControlPlane,
    config: HostPathConfig,
    /// Recovery summary of a warm restart (durable path only; `None` on a
    /// cold start).
    warm: Option<WarmStart>,
    /// Control frames re-announcing the recovered dictionary after a warm
    /// restart; the caller puts them on the wire before any new data
    /// ([`Self::take_restart_sync_frames`]).
    restart_sync: Vec<EthernetFrame>,
}

impl EngineHostPath<GdBackend> {
    /// Builds the GD-backed host path. With [`HostPathConfig::durable`]
    /// set and an existing store at that directory, this is a **warm
    /// restart**: the dictionary rehydrates from disk,
    /// [`Self::warm_start`] reports the recovered batch boundary, and
    /// [`Self::take_restart_sync_frames`] carries the in-band
    /// re-announcement of every recovered mapping.
    pub fn new(config: HostPathConfig) -> Result<Self> {
        let mut engine = config.engine_builder().build()?;
        let mut control = EngineControlPlane::new();
        let warm = engine.take_warm_start();
        let mut restart_sync = Vec::new();
        if let Some(warm) = &warm {
            // Re-announce every live mapping with fresh nonces: heals a
            // decoder that missed the crash-window tail and re-syncs the
            // nonce table a surviving decoder echoes into removes.
            let live = engine
                .snapshot()
                .entries
                .into_iter()
                .map(|(id, basis)| (id, basis.to_bytes()));
            let floor = warm.dictionary.delta_seq.min(u32::MAX as u64) as u32;
            restart_sync = control
                .reseed(live, floor)
                .into_iter()
                .map(|message| message.to_frame(config.src, config.dst))
                .collect();
        }
        Ok(Self {
            engine: Some(engine),
            control,
            config,
            warm,
            restart_sync,
        })
    }
}

impl<B: CompressionBackend + Send + 'static> EngineHostPath<B> {
    /// Builds a host path over an explicit backend instance — e.g.
    /// `EngineHostPath::with_backend(config, DeflateBackend::default())`
    /// for the gzip-backed path. The engine configuration is validated once;
    /// for byte-stream backends (`unit_bytes == 1`)
    /// [`HostPathConfig::batch_chunks`] counts bytes per emitted payload, so
    /// size it in kilobytes for deflate to give each gzip member a window
    /// worth compressing.
    pub fn with_backend(config: HostPathConfig, backend: B) -> Result<Self> {
        let mut engine = config.engine_builder().backend(backend).build()?;
        let warm = engine.take_warm_start();
        Ok(Self {
            engine: Some(engine),
            control: EngineControlPlane::new(),
            config,
            warm,
            // Non-GD backends are delta-less and self-contained: nothing to
            // re-announce.
            restart_sync: Vec::new(),
        })
    }

    /// Recovery summary of a warm restart: the committed batch boundary the
    /// engine resumed from (`batches`, `bytes_in`, `frames` tell the caller
    /// where to resume feeding input), the frames committed before the
    /// crash, and whether the restore was bit-exact. `None` on a cold
    /// start or without [`HostPathConfig::durable`].
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm.as_ref()
    }

    /// Takes the in-band re-announcement frames of a warm restart (empty
    /// on a cold start, for a delta-less backend, or once taken). Put these on
    /// the wire **before** any newly compressed frames: they re-install
    /// every recovered mapping under fresh nonces, so a decoder that kept
    /// its state keeps retiring future evictions correctly and a decoder
    /// that missed the crash-window control tail is healed.
    pub fn take_restart_sync_frames(&mut self) -> Vec<EthernetFrame> {
        std::mem::take(&mut self.restart_sync)
    }

    /// The underlying engine (statistics, snapshot, dictionary).
    pub fn engine(&self) -> &CompressionEngine<B> {
        self.engine
            .as_ref()
            .expect("engine lost to a failed stream")
    }

    /// The mirrored decompressor for the frames this path emits (feed it
    /// the received payloads in order).
    pub fn decompressor(&self) -> Result<EngineDecompressor<B>> {
        Ok(self.engine().decompressor()?)
    }

    /// Control-plane counters of the decoder sync protocol.
    pub fn control_stats(&self) -> EngineControlStats {
        self.control.stats()
    }

    /// Processes a decoder acknowledgement (`MappingInstalled`), discarding
    /// stale nonces; returns whether it matched a pending install.
    pub fn handle_ack(&mut self, id: u64, nonce: u32) -> bool {
        self.control.handle_ack(id, nonce)
    }

    /// Compresses a buffer into wire-ready Ethernet frames (one frame per
    /// stream record, plus interleaved control frames) and the stream
    /// totals.
    pub fn compress_to_frames(
        &mut self,
        data: &[u8],
    ) -> Result<(Vec<EthernetFrame>, StreamSummary)> {
        self.compress_via(|stream| stream.push_record(data))
    }

    /// Compresses every chunk of a workload generator into frames, feeding
    /// the engine through the streaming API (on a path with
    /// [`HostPathConfig::pipeline_depth`], the workload iterator runs on
    /// the calling thread while batches compress on the engine worker).
    pub fn compress_workload_to_frames(
        &mut self,
        workload: &dyn ChunkWorkload,
    ) -> Result<(Vec<EthernetFrame>, StreamSummary)> {
        self.compress_via(|stream| stream.consume_workload(workload))
    }

    /// Alias of [`Self::compress_workload_to_frames`], kept for callers
    /// written when the path had a separate pipelined discipline (the
    /// `benchmark/` harness's `host.frames` rung).
    pub fn compress_workload_to_frames_pipelined(
        &mut self,
        workload: &dyn ChunkWorkload,
    ) -> Result<(Vec<EthernetFrame>, StreamSummary)> {
        self.compress_workload_to_frames(workload)
    }

    /// Shared frame-building stream harness: moves the engine into a
    /// [`PipelinedStream`] whose payload sink wraps every payload in an
    /// Ethernet frame and whose control sink interleaves install/remove
    /// frames at their journal positions, runs `feed`, and takes the engine
    /// back when the stream finishes. If the stream fails *mid-stream*, the
    /// engine is lost with it — acceptable because such a failure leaves
    /// the compressor/decoder pair out of sync anyway.
    fn compress_via(
        &mut self,
        feed: impl FnOnce(
            &mut PipelinedStream<PayloadSinks<FrameSink<'_>, ControlSink<'_>>, B>,
        ) -> std::result::Result<(), zipline_engine::EngineError>,
    ) -> Result<(Vec<EthernetFrame>, StreamSummary)> {
        // Both sinks push into one ordered frame sequence; the RefCell lets
        // the payload and control closures share it.
        let frames: RefCell<Vec<EthernetFrame>> = RefCell::new(Vec::new());
        let (src, dst, raw_ethertype) =
            (self.config.src, self.config.dst, self.config.raw_ethertype);
        let Self {
            engine,
            control,
            config,
            ..
        } = self;
        let owned_engine = engine.take().expect("engine lost to a failed stream");
        let sink: FrameSink<'_> = Box::new(|pt, bytes| {
            let ethertype = pt.ethertype().unwrap_or(raw_ethertype);
            frames
                .borrow_mut()
                .push(EthernetFrame::new(dst, src, ethertype, bytes.to_vec()));
        });
        let control_sink: ControlSink<'_> = Box::new(|update: &DictionaryUpdate| {
            control.push_frames_for(update, src, dst, &mut frames.borrow_mut());
        });
        let mut stream = PipelinedStream::with_control_sink(
            owned_engine,
            config.batch_chunks,
            sink,
            Some(control_sink),
        )?;
        feed(&mut stream)?;
        let (restored_engine, summary) = stream.finish()?;
        *engine = Some(restored_engine);
        Ok((frames.into_inner(), summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{DecoderConfig, ZipLineDecodeProgram};
    use crate::deployment::{DeploymentConfig, ZipLineDeployment};
    use zipline_engine::SpawnPolicy;
    use zipline_gd::config::GdConfig;
    use zipline_net::time::SimTime;
    use zipline_switch::packet_ctx::PacketContext;
    use zipline_switch::program::PipelineProgram;
    use zipline_traces::{ChurnWorkload, ChurnWorkloadConfig};

    fn sensor_style_data(chunks: u32) -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..chunks {
            let mut chunk = [0u8; 32];
            chunk[0] = (i % 5) as u8;
            chunk[31] = 0xEE;
            data.extend_from_slice(&chunk);
        }
        data
    }

    /// Feeds every frame through the decoder program, returning the
    /// concatenated restored payloads (frames forwarded to the data egress
    /// port only — acks towards the control port and consumed control frames
    /// are not data).
    fn decode_frames(decoder: &mut ZipLineDecodeProgram, frames: Vec<EthernetFrame>) -> Vec<u8> {
        let data_port = decoder.config().data_egress_port;
        let mut restored = Vec::new();
        for frame in frames {
            let mut ctx = PacketContext::new(0, frame);
            decoder.ingress(&mut ctx, SimTime::ZERO);
            if ctx.egress_port == Some(data_port) {
                restored.extend_from_slice(&ctx.frame.payload);
            }
        }
        restored
    }

    #[test]
    fn host_compressed_frames_restore_through_decoder_program() {
        let mut host = EngineHostPath::new(HostPathConfig::paper_default()).unwrap();
        let mut data = sensor_style_data(120);
        data.extend_from_slice(b"raw-tail");
        let (frames, summary) = host.compress_to_frames(&data).unwrap();
        let control_frames = frames
            .iter()
            .filter(|f| f.ethertype == crate::control::ETHERTYPE_ZIPLINE_CONTROL)
            .count();
        assert_eq!(
            summary.payloads_emitted as usize + control_frames,
            frames.len()
        );
        assert_eq!(summary.control_updates as usize, control_frames);
        assert!(summary.compressed_payloads > 100, "most chunks deduplicate");
        assert!(
            (summary.wire_bytes as usize) < data.len() / 2,
            "wire bytes shrink"
        );

        // Decoder switch program, synced purely by the in-band control
        // frames — no snapshot needed.
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let restored = decode_frames(&mut decoder, frames);
        assert_eq!(restored, data);
        assert_eq!(decoder.stats().decode_failures, 0);
    }

    #[test]
    fn host_path_through_full_deployment_roundtrips() {
        let mut host = EngineHostPath::new(HostPathConfig::paper_default()).unwrap();
        let data = sensor_style_data(80);
        let (frames, _) = host.compress_to_frames(&data).unwrap();

        let mut deployment = ZipLineDeployment::new(DeploymentConfig::fast_test()).unwrap();
        let outcome = deployment.run_frames(frames).unwrap();
        let received: Vec<u8> = outcome.received_payloads.concat();
        assert_eq!(received, data, "in-network restoration is lossless");
    }

    // ---- dictionary-churn regression (the PR-3 aliasing bug) -------------

    /// Small identifier space so churn is cheap to provoke: 64 identifiers,
    /// 32-byte chunks (m = 8).
    fn churny_config() -> HostPathConfig {
        HostPathConfig {
            engine: EngineConfig {
                gd: GdConfig::for_parameters(8, 6).unwrap(),
                shards: 4,
                workers: 2,
                spawn: SpawnPolicy::Inline,
            },
            batch_chunks: 64,
            src: MacAddress::local(2),
            dst: MacAddress::local(1),
            raw_ethertype: zipline_net::ethernet::ETHERTYPE_IPV4,
            pipeline_depth: None,
            durable: None,
            checkpoint_cadence: 1,
            sync: SyncPolicy::Flush,
        }
    }

    /// 4× more distinct bases than the dictionary holds, each appearing
    /// twice in a row — the repeats compress to `Ref` records whose
    /// identifiers are later recycled (see `zipline_traces::churn`).
    fn churn_workload(config: &HostPathConfig) -> ChurnWorkload {
        ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(
            config.engine.gd.dictionary_capacity(),
            4,
            config.engine.gd.chunk_bytes,
        ))
    }

    fn churny_decoder(config: &HostPathConfig) -> ZipLineDecodeProgram {
        ZipLineDecodeProgram::new(DecoderConfig {
            gd: config.engine.gd,
            ..DecoderConfig::paper_default()
        })
        .unwrap()
    }

    /// With live incremental sync a churn-heavy stream — one whose post-hoc
    /// snapshot would alias recycled identifiers — roundtrips losslessly — every `Ref` is preceded on the wire by the
    /// install that makes it decodable, and recycled identifiers are retired
    /// before re-installation.
    #[test]
    fn live_sync_roundtrips_churn_losslessly() {
        let config = churny_config();
        let capacity = config.engine.gd.dictionary_capacity() as u64;
        let mut host = EngineHostPath::new(config.clone()).unwrap();
        let workload = churn_workload(&config);
        let data = workload.bytes();
        // Feed through the workload-iterator front-end (the streaming API).
        let (frames, summary) = host.compress_workload_to_frames(&workload).unwrap();
        assert!(host.engine().stats().evictions > 0, "workload churns");
        assert!(
            summary.control_updates > capacity,
            "churn generates more installs than the dictionary holds"
        );

        let mut decoder = churny_decoder(&config);
        let restored = decode_frames(&mut decoder, frames);
        assert_eq!(restored, data, "live sync restores losslessly");
        assert_eq!(decoder.stats().decode_failures, 0);
        let stats = host.control_stats();
        assert!(stats.removes_sent > 0, "evictions stream removes");
        assert_eq!(
            stats.installs_sent,
            host.engine().stats().bases_learned,
            "one install per learned basis"
        );
    }

    /// End-to-end: the same churn-heavy stream through the full simulated
    /// deployment (control frames travel in-band through the encoder switch
    /// and are consumed by the decoder switch, whose acks flow back over the
    /// out-of-band channel).
    #[test]
    fn live_sync_churn_roundtrips_through_full_deployment() {
        let config = churny_config();
        let mut host = EngineHostPath::new(config.clone()).unwrap();
        let data = churn_workload(&config).bytes();
        let (frames, _) = host.compress_to_frames(&data).unwrap();

        let mut deployment = ZipLineDeployment::new(DeploymentConfig {
            gd: config.engine.gd,
            ..DeploymentConfig::fast_test()
        })
        .unwrap();
        let outcome = deployment.run_frames(frames).unwrap();
        assert_eq!(outcome.received_payloads.concat(), data);
        assert_eq!(outcome.decoder_stats.decode_failures, 0);
    }

    // ---- pipelined ingest through the host path (ISSUE 5) ----------------

    /// A path with a pipeline depth emits the bit-identical frame sequence
    /// of one without — payload frames *and* interleaved control frames —
    /// on the churn-heavy workload, for every spawn policy and several
    /// depths.
    #[test]
    fn pipelined_frames_are_bit_identical_to_synchronous() {
        let sync_config = churny_config();
        let mut sync_host = EngineHostPath::new(sync_config.clone()).unwrap();
        let workload = churn_workload(&sync_config);
        let (sync_frames, sync_summary) = sync_host.compress_workload_to_frames(&workload).unwrap();
        assert!(sync_summary.control_updates > 0, "workload churns");

        for spawn in [SpawnPolicy::Inline, SpawnPolicy::Threads, SpawnPolicy::Auto] {
            for depth in [1usize, 2, 4] {
                let config = HostPathConfig {
                    engine: EngineConfig {
                        spawn,
                        ..sync_config.engine
                    },
                    pipeline_depth: Some(depth),
                    ..sync_config.clone()
                };
                let mut host = EngineHostPath::new(config).unwrap();
                let (frames, summary) = host.compress_workload_to_frames(&workload).unwrap();
                assert_eq!(
                    frames, sync_frames,
                    "spawn = {spawn:?}, depth = {depth}: frame sequences diverge"
                );
                assert_eq!(summary, sync_summary, "spawn = {spawn:?}, depth = {depth}");
            }
        }
    }

    /// Pipelined churn stream through the full simulated deployment: the
    /// asynchronous ingest layer preserves the in-band control ordering the
    /// decoder depends on.
    #[test]
    fn pipelined_churn_roundtrips_through_full_deployment() {
        let config = HostPathConfig {
            pipeline_depth: Some(2),
            ..churny_config()
        };
        let mut host = EngineHostPath::new(config.clone()).unwrap();
        let data = churn_workload(&config).bytes();
        let (frames, _) = host.compress_to_frames(&data).unwrap();
        assert!(host.engine().stats().evictions > 0, "workload churns");

        let mut deployment = ZipLineDeployment::new(DeploymentConfig {
            gd: config.engine.gd,
            ..DeploymentConfig::fast_test()
        })
        .unwrap();
        let outcome = deployment.run_frames(frames).unwrap();
        assert_eq!(outcome.received_payloads.concat(), data);
        assert_eq!(outcome.decoder_stats.decode_failures, 0);
    }

    // ---- durable warm restart (ISSUE 6) ----------------------------------

    /// The tentpole host-level property: a durable host path killed between
    /// streams warm-restarts over the same directory and resumes the
    /// churn-heavy workload against a decoder that **kept its state** — no
    /// snapshot preload, no decode failures, lossless end to end. The
    /// restart re-announces every live mapping in-band
    /// ([`EngineHostPath::take_restart_sync_frames`]) so the surviving
    /// decoder's nonce table heals before the first resumed `Ref` frame.
    #[test]
    fn warm_restart_resumes_churn_against_a_surviving_decoder() {
        let dir = std::env::temp_dir().join(format!("zipline-host-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = HostPathConfig {
            durable: Some(dir.clone()),
            ..churny_config()
        };
        let workload = zipline_traces::CrashWorkload::exceeding_capacity(
            config.engine.gd.dictionary_capacity(),
            4,
            config.engine.gd.chunk_bytes,
        );
        let mut decoder = churny_decoder(&config);
        let mut restored = Vec::new();

        // Incarnation 1: compresses the pre-crash phase, then dies.
        let mut host = EngineHostPath::new(config.clone()).unwrap();
        assert!(host.warm_start().is_none(), "fresh store starts cold");
        let (frames, _) = host
            .compress_workload_to_frames(&workload.pre_crash())
            .unwrap();
        restored.extend_from_slice(&decode_frames(&mut decoder, frames));
        drop(host);

        // Incarnation 2 over the same directory: warm restart — the
        // recovered cursor matches the crash point, and the re-announcement
        // frames replace the cold-start snapshot resync.
        let mut host = EngineHostPath::new(config.clone()).unwrap();
        let warm = host.warm_start().expect("store is warm");
        assert!(warm.batches > 0);
        assert_eq!(warm.bytes_in, workload.crash_offset_bytes() as u64);
        let sync = host.take_restart_sync_frames();
        assert!(!sync.is_empty(), "restart re-announces live mappings");
        // Install frames carry no data; feeding them heals the decoder's
        // nonce table without touching the restored payload stream.
        restored.extend_from_slice(&decode_frames(&mut decoder, sync));
        let (frames, _) = host
            .compress_workload_to_frames(&workload.post_crash())
            .unwrap();
        restored.extend_from_slice(&decode_frames(&mut decoder, frames));
        drop(host);

        assert_eq!(
            restored,
            workload.full().bytes(),
            "crash-spanning roundtrip is lossless"
        );
        assert_eq!(decoder.stats().decode_failures, 0);

        // A third incarnation sees the full stream committed.
        let host = EngineHostPath::new(config).unwrap();
        let warm = host.warm_start().expect("still warm");
        assert_eq!(warm.bytes_in, workload.full().bytes().len() as u64);
        drop(host);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The host path survives successive pushes through both front-ends:
    /// the engine (dictionary state included) is handed back after every
    /// stream, so the combined frame sequence still decodes.
    #[test]
    fn pipelined_and_synchronous_pushes_interleave_on_one_engine() {
        let config = HostPathConfig {
            pipeline_depth: Some(1),
            engine: EngineConfig {
                spawn: SpawnPolicy::Threads,
                ..HostPathConfig::paper_default().engine
            },
            ..HostPathConfig::paper_default()
        };
        let mut host = EngineHostPath::new(config).unwrap();
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let mut all_data = Vec::new();
        let mut restored = Vec::new();
        for round in 0..4u32 {
            let (data, (frames, _)) = if round % 2 == 0 {
                let workload = ChurnWorkload::new(ChurnWorkloadConfig {
                    distinct: 5 + round,
                    repeats: 8,
                    chunk_len: 32,
                });
                (
                    workload.bytes(),
                    host.compress_workload_to_frames(&workload).unwrap(),
                )
            } else {
                let data = sensor_style_data(40 + round);
                let out = host.compress_to_frames(&data).unwrap();
                (data, out)
            };
            restored.extend_from_slice(&decode_frames(&mut decoder, frames));
            all_data.extend_from_slice(&data);
        }
        assert_eq!(restored, all_data);
        assert_eq!(decoder.stats().decode_failures, 0);
    }

    // ---- non-GD backends through the same host path (ISSUE 4) ------------

    use zipline_engine::{CompressionBackend, DeflateBackend, PassthroughBackend};
    use zipline_traces::{
        ChunkWorkload, DnsWorkload, DnsWorkloadConfig, SensorWorkload, SensorWorkloadConfig,
    };

    /// A deflate-friendly host config: byte-stream backends interpret
    /// `batch_chunks` as bytes per payload, so give each gzip member 4 KiB.
    fn deflate_host_config() -> HostPathConfig {
        HostPathConfig {
            batch_chunks: 4096,
            ..HostPathConfig::paper_default()
        }
    }

    /// Runs a backend-emitted frame sequence through the full simulated
    /// deployment and restores the received payloads with the mirrored
    /// backend decompressor.
    fn roundtrip_through_deployment<B: CompressionBackend + Send + 'static>(
        host: &mut EngineHostPath<B>,
        frames: Vec<EthernetFrame>,
    ) -> Vec<u8> {
        let mut deployment = ZipLineDeployment::new(DeploymentConfig::fast_test()).unwrap();
        let outcome = deployment.run_frames(frames).unwrap();
        assert_eq!(
            outcome.decoder_stats.decode_failures, 0,
            "the switches restore every frame they processed"
        );
        let mut dec = host.decompressor().unwrap();
        let mut restored = Vec::new();
        for payload in &outcome.received_payloads {
            dec.restore_payload_into(zipline_gd::packet::PacketType::Raw, payload, &mut restored)
                .unwrap();
        }
        restored
    }

    /// The acceptance workloads: `DeflateBackend` roundtrips the sensor,
    /// DNS and churn workloads losslessly through the full deployment — the
    /// gzip members travel as raw frames, get GD-processed and restored by
    /// the switches, and decompress byte-exactly at the receiver.
    #[test]
    fn deflate_host_path_roundtrips_workloads_through_full_deployment() {
        let sensor = SensorWorkload::new(SensorWorkloadConfig::small());
        let dns = DnsWorkload::new(DnsWorkloadConfig::small());
        let churn = ChurnWorkload::new(ChurnWorkloadConfig::exceeding_capacity(64, 4, 32));
        let workloads: [(&str, &dyn ChunkWorkload); 3] =
            [("sensor", &sensor), ("dns", &dns), ("churn", &churn)];
        for (name, workload) in workloads {
            let mut host =
                EngineHostPath::with_backend(deflate_host_config(), DeflateBackend::default())
                    .unwrap();
            let (frames, summary) = host.compress_workload_to_frames(workload).unwrap();
            let data: Vec<u8> = workload.chunks().flatten().collect();
            assert_eq!(summary.bytes_in, data.len() as u64, "workload {name}");
            assert_eq!(
                summary.control_updates, 0,
                "deflate is delta-less; workload {name}"
            );
            assert!(
                summary.wire_bytes < data.len() as u64,
                "gzip compresses the {name} workload"
            );
            let restored = roundtrip_through_deployment(&mut host, frames);
            assert_eq!(restored, data, "workload {name} roundtrips losslessly");
        }
    }

    /// The pipelined ingest layer is backend-generic: the gzip-backed path
    /// compresses a workload through the worker thread and still roundtrips
    /// losslessly through the full deployment.
    #[test]
    fn deflate_pipelined_host_path_roundtrips_through_deployment() {
        let config = HostPathConfig {
            pipeline_depth: Some(2),
            engine: EngineConfig {
                spawn: SpawnPolicy::Threads,
                ..HostPathConfig::paper_default().engine
            },
            ..deflate_host_config()
        };
        let mut host = EngineHostPath::with_backend(config, DeflateBackend::default()).unwrap();
        let workload = SensorWorkload::new(SensorWorkloadConfig::small());
        let (frames, summary) = host.compress_workload_to_frames(&workload).unwrap();
        let data: Vec<u8> = workload.chunks().flatten().collect();
        assert_eq!(summary.bytes_in, data.len() as u64);
        assert!(summary.wire_bytes < data.len() as u64, "gzip compresses");
        let restored = roundtrip_through_deployment(&mut host, frames);
        assert_eq!(restored, data);
    }

    /// The passthrough backend is the wire floor: ratio exactly 1.0, and the
    /// frames still travel (and restore) through the same deployment.
    #[test]
    fn passthrough_host_path_is_the_ratio_floor_through_the_deployment() {
        let mut host =
            EngineHostPath::with_backend(deflate_host_config(), PassthroughBackend::new()).unwrap();
        let data = sensor_style_data(100);
        let (frames, summary) = host.compress_to_frames(&data).unwrap();
        assert_eq!(summary.wire_bytes, data.len() as u64, "floor ratio is 1.0");
        let restored = roundtrip_through_deployment(&mut host, frames);
        assert_eq!(restored, data);
        assert!(host.engine().stats().is_consistent());
        assert!(host.engine().backend().snapshot().is_none());
    }

    /// Backend-generic statistics surface: the deflate engine reports a
    /// ratio below the passthrough floor on a redundant workload, through
    /// the same `CompressionEngine` accessors.
    #[test]
    fn backend_stats_compare_against_the_floor() {
        let data = sensor_style_data(200);
        let mut gzip =
            EngineHostPath::with_backend(deflate_host_config(), DeflateBackend::default()).unwrap();
        let mut floor =
            EngineHostPath::with_backend(deflate_host_config(), PassthroughBackend::new()).unwrap();
        gzip.compress_to_frames(&data).unwrap();
        floor.compress_to_frames(&data).unwrap();
        let gzip_ratio = gzip.engine().stats().compression_ratio().unwrap();
        let floor_ratio = floor.engine().stats().compression_ratio().unwrap();
        assert_eq!(floor_ratio, 1.0);
        assert!(
            gzip_ratio < floor_ratio,
            "gzip ({gzip_ratio:.3}) beats the floor"
        );
        assert!(
            gzip.engine().shard_stats().is_empty(),
            "no shards to report"
        );
    }
}
