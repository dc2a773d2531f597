//! The engine's one stream: records in, committed batches out, with record
//! accumulation overlapped with batch compression where the host allows.
//!
//! [`PipelinedStream`] adapts the batch-oriented [`CompressionEngine`] to
//! record-at-a-time producers (the `zipline-traces` workload iterators, a
//! server session, the `zipline` host path), for **any**
//! [`CompressionBackend`]. Records are buffered until a batch's worth of
//! backend units is available ([`CompressionBackend::unit_bytes`] — GD
//! chunks, or single bytes for deflate and passthrough); the batch is
//! compressed, its dictionary delta drained, and every payload serialized
//! into one [`Batch`] — the payloads back to back, their shapes run-length
//! coded, the delta's updates placed among them — which is handed whole to
//! the stream's [`BatchSink`]. The per-payload constructors wrap their
//! closures in [`PayloadSinks`].
//!
//! # Where the engine runs
//!
//! The stream takes the [`CompressionEngine`] **by value** and returns it
//! from [`finish`](PipelinedStream::finish). It then runs on one of two
//! backings, chosen once at construction from the engine's configuration:
//!
//! * **inline** — every batch compresses on the calling thread at dispatch.
//!   This is the backing of an engine built without
//!   [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined), of
//!   [`SpawnPolicy::Inline`], and of [`SpawnPolicy::Auto`] on a one-core
//!   host;
//! * **threaded** — a dedicated engine worker owns the engine and the
//!   caller keeps filling the next batch. Filled batches cross a *bounded*
//!   [`std::sync::mpsc::sync_channel`] whose capacity is the pipeline depth:
//!   when the worker falls behind, `push_record` blocks on the send, which
//!   keeps memory proportional to `depth + 2` batches. Input and output
//!   buffers are recycled in both directions, and finished batches are
//!   drained opportunistically on every push and exhaustively at `finish`.
//!
//! Sinks always run **on the calling thread**, in batch order, so they need
//! no `Send` bound.
//!
//! # Determinism
//!
//! Both backings process batches in FIFO order against the same engine
//! state and stage them through the same code (`stage_batch`), so the
//! output — payload bytes *and* interleaved dictionary updates — is a pure
//! function of `(data, backend, shard count, batch size)`: backing, depth,
//! spawn policy and worker count never move a bit. `tests/golden/stream.txt`
//! pins it per batch.
//!
//! # Construction
//!
//! ```
//! use zipline_engine::{EngineBuilder, PipelinedStream};
//!
//! let engine = EngineBuilder::new()
//!     .shards(4)
//!     .workers(2)
//!     .pipelined(2)
//!     .build()
//!     .unwrap();
//! let mut payloads = 0u64;
//! let mut stream = PipelinedStream::new(engine, 16, |_pt, _bytes| payloads += 1).unwrap();
//! stream.push_record(&[7u8; 32 * 40]).unwrap();
//! let (engine, summary) = stream.finish().unwrap();
//! assert_eq!(summary.payloads_emitted, payloads);
//! assert!(engine.stats().is_consistent());
//! ```
//!
//! Backends with shared decoder state (GD) journal every dictionary
//! mutation, so every batch carries its updates; whether they reach the
//! sink is the sink's [`wants_updates`](BatchSink::wants_updates).
//!
//! # Durability (commit-then-emit)
//!
//! For an engine built with
//! [`EngineBuilder::durable`](crate::EngineBuilder::durable), the
//! [`EngineStore`] is detached at construction and held **caller-side**:
//! each finished batch is committed (batch record + dictionary delta +
//! commit marker) on the emitting thread strictly before the sink sees it,
//! so sinks only ever observe committed output — a crash either loses an
//! uncommitted batch (whose input re-runs on resume) or leaves a committed
//! batch replayable from the store's [`WarmStart`](crate::WarmStart)
//! journal. Mid-stream commits carry no checkpoint; recovery folds the
//! delta log, and [`finish`](PipelinedStream::finish) compacts the store
//! from the returned engine (one checkpoint) before re-attaching it.
//! Worker-side failures surface as typed [`EngineError`]s: a parked
//! compression error converts via `From<GdError>`, and a worker that
//! vanished without one is [`EngineError::WorkerLost`].

use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use crate::backend::CompressionBackend;
use crate::engine::{CompressionEngine, GdBackend, SpawnPolicy};
use crate::error::{EngineError, Result};
use crate::frame::Batch;
use crate::persist::EngineStore;
use crate::registry::CodecCursor;
use crate::shard::DictionaryUpdate;
use crate::stream::{deliver, stage_batch, BatchSink, PayloadSinks, StreamSummary};
use zipline_gd::error::{GdError, Result as GdResult};
use zipline_gd::packet::PacketType;
use zipline_traces::ChunkWorkload;

/// Maximum accepted pipeline depth; a larger value is almost certainly a
/// units mistake (depth is *batches in flight*, not bytes).
pub const MAX_PIPELINE_DEPTH: usize = 1024;

/// Host parallelism, probed once per process:
/// `std::thread::available_parallelism` reads cgroup files on Linux
/// (~14 µs), which would otherwise tax every short-lived stream under
/// [`SpawnPolicy::Auto`].
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Shape of the ingest pipeline, set by
/// [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined) and carried
/// on the built [`CompressionEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Bounded channel capacity: filled batches allowed in flight between
    /// ingest and the engine worker before `push_record` blocks
    /// (backpressure). Depth 1 is classic double buffering: one batch
    /// queued, one compressing, one filling.
    pub depth: usize,
    /// Whether the stream may spawn its worker thread (inherited from the
    /// engine configuration at `build()`): [`SpawnPolicy::Auto`] spawns only
    /// on multi-core hosts, [`SpawnPolicy::Inline`] never does,
    /// [`SpawnPolicy::Threads`] always does.
    pub spawn: SpawnPolicy,
}

impl PipelineConfig {
    /// Checks internal consistency (depth in `1..=`[`MAX_PIPELINE_DEPTH`]).
    pub fn validate(&self) -> GdResult<()> {
        if self.depth == 0 || self.depth > MAX_PIPELINE_DEPTH {
            return Err(GdError::InvalidConfig(format!(
                "pipeline depth must be in 1..={MAX_PIPELINE_DEPTH}, got {}",
                self.depth
            )));
        }
        Ok(())
    }
}

/// One batch travelling through the pipeline, in both directions: towards
/// the worker `input` holds the filled batch; on the way back `batch` holds
/// the compressed result and `input` rides along so the caller can recycle
/// it. Both are reused across the stream's lifetime (a sink that moves the
/// batch's buffers out leaves an empty one to grow again).
#[derive(Debug, Default)]
struct BatchShuttle {
    /// The batch's input bytes (a whole number of backend units, except for
    /// the final flush).
    input: Vec<u8>,
    /// The compressed batch: codec tag, payloads, placed dictionary updates.
    batch: Batch,
}

/// The worker half of the threaded pipeline: owns the engine, compresses
/// shuttles in FIFO order, returns the engine when the job channel closes.
fn run_worker<B: CompressionBackend>(
    mut engine: CompressionEngine<B>,
    jobs: Receiver<BatchShuttle>,
    results: Sender<GdResult<BatchShuttle>>,
) -> CompressionEngine<B> {
    while let Ok(mut shuttle) = jobs.recv() {
        let outcome = compress_shuttle(&mut engine, &mut shuttle);
        let failed = outcome.is_err();
        // A send error means the caller is gone (dropped mid-stream); there
        // is nobody left to observe results, so just stop compressing.
        if results.send(outcome.map(|()| shuttle)).is_err() || failed {
            break;
        }
    }
    engine
}

/// Compresses one shuttle in place: input → staged [`Batch`] (compress,
/// drain journal, serialize in input order).
fn compress_shuttle<B: CompressionBackend>(
    engine: &mut CompressionEngine<B>,
    shuttle: &mut BatchShuttle,
) -> GdResult<()> {
    let batch = engine.compress_batch(&shuttle.input)?;
    stage_batch(engine.backend_mut(), batch, &mut shuttle.batch)
}

/// Caller-side state of the threaded pipeline.
struct Threaded<B: CompressionBackend> {
    /// Bounded: sending a filled batch blocks when `depth` batches are
    /// already queued — the stream's backpressure.
    jobs: SyncSender<BatchShuttle>,
    /// FIFO results; batch order is emission order.
    results: Receiver<GdResult<BatchShuttle>>,
    worker: JoinHandle<CompressionEngine<B>>,
    /// Recycled shuttles (input + batch buffers), refilled as results drain.
    spare: Vec<BatchShuttle>,
}

/// Where the engine lives for the stream's lifetime.
enum Backing<B: CompressionBackend> {
    /// The engine stays on the calling thread and every batch compresses
    /// synchronously at dispatch.
    Inline(Box<CompressionEngine<B>>),
    Threaded(Threaded<B>),
    /// Transient teardown state (after `finish`, or mid-`Drop`).
    Closed,
}

/// Pipelined front-end over a [`CompressionEngine`]; see the module docs.
///
/// `S` is where finished batches go. The per-payload constructors
/// ([`Self::new`], [`Self::with_control_sink`]) wrap their closures in a
/// [`PayloadSinks`]; [`Self::with_batch_sink`] takes any [`BatchSink`].
pub struct PipelinedStream<S, B = GdBackend>
where
    S: BatchSink,
    B: CompressionBackend + Send + 'static,
{
    backing: Backing<B>,
    sink: S,
    /// Bytes pushed but not yet dispatched (always shorter than a batch).
    buffer: Vec<u8>,
    /// Dispatch threshold in bytes (a whole number of backend units).
    batch_bytes: usize,
    summary: StreamSummary,
    /// Durable store, detached from the engine at construction and held on
    /// the **calling** thread: commit-then-emit happens where the sink runs,
    /// so the sink only ever observes committed batches, while a worker owns
    /// nothing but the engine. Mid-stream commits carry no checkpoint;
    /// `finish` compacts the store from the returned engine and re-attaches
    /// it.
    store: Option<EngineStore>,
    /// Reusable staging shuttle for the inline backing.
    inline_shuttle: BatchShuttle,
}

impl<F, B> PipelinedStream<PayloadSinks<F, fn(&DictionaryUpdate)>, B>
where
    F: FnMut(PacketType, &[u8]),
    B: CompressionBackend + Send + 'static,
{
    /// Creates a stream that dispatches a batch every `batch_units` backend
    /// units ([`CompressionBackend::unit_bytes`] each — chunks for GD, bytes
    /// for deflate/passthrough), emitting each wire payload to `sink` as
    /// `(packet type, payload bytes)` on the calling thread. `finish` hands
    /// the engine back.
    pub fn new(engine: CompressionEngine<B>, batch_units: usize, sink: F) -> Result<Self> {
        Self::with_control_sink(engine, batch_units, sink, None)
    }
}

impl<F, G, B> PipelinedStream<PayloadSinks<F, G>, B>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend + Send + 'static,
{
    /// Creates a stream with an optional control sink. When `control_sink`
    /// is `Some`, every install/evict event is handed to it interleaved with
    /// the payloads, in the order a decoder must apply them (each update
    /// strictly before the payload at whose position it happened).
    pub fn with_control_sink(
        engine: CompressionEngine<B>,
        batch_units: usize,
        sink: F,
        control_sink: Option<G>,
    ) -> Result<Self> {
        Self::with_batch_sink(engine, batch_units, PayloadSinks::new(sink, control_sink))
    }

    /// Attaches a [`CodecCursor`] the stream publishes each batch's codec
    /// tag through: `Some(id)` while a tagging backend's
    /// ([`CompressionBackend::tags_batches`]) batch flows to the sink,
    /// `None` for fixed backends.
    pub fn set_codec_cursor(&mut self, cursor: CodecCursor) {
        self.sink.set_codec_cursor(cursor);
    }
}

impl<S, B> PipelinedStream<S, B>
where
    S: BatchSink,
    B: CompressionBackend + Send + 'static,
{
    /// Creates a stream that hands each finished batch, whole, to `sink` on
    /// the calling thread. The stream runs threaded only when the engine
    /// carries a [`PipelineConfig`] whose spawn policy allows a worker (see
    /// the module docs).
    pub fn with_batch_sink(
        mut engine: CompressionEngine<B>,
        batch_units: usize,
        sink: S,
    ) -> Result<Self> {
        let unit_bytes = engine.backend().unit_bytes().max(1);
        let worker_depth = match engine.pipeline() {
            Some(pipeline) => {
                pipeline.validate()?;
                let spawns = match pipeline.spawn {
                    SpawnPolicy::Inline => false,
                    SpawnPolicy::Threads => true,
                    SpawnPolicy::Auto => host_cores() > 1,
                };
                spawns.then_some(pipeline.depth)
            }
            None => None,
        };
        // The store stays caller-side; only the engine crosses to the
        // worker thread.
        let store = engine.take_store();
        let backing = if let Some(depth) = worker_depth {
            let (jobs, job_rx) = sync_channel::<BatchShuttle>(depth);
            let (result_tx, results) = std::sync::mpsc::channel();
            let worker = std::thread::Builder::new()
                .name("zipline-pipelined".into())
                .spawn(move || run_worker(engine, job_rx, result_tx))
                .expect("spawn pipelined engine worker");
            Backing::Threaded(Threaded {
                jobs,
                results,
                worker,
                spare: Vec::new(),
            })
        } else {
            Backing::Inline(Box::new(engine))
        };
        Ok(Self {
            backing,
            sink,
            buffer: Vec::new(),
            batch_bytes: batch_units.max(1) * unit_bytes,
            summary: StreamSummary::default(),
            store,
            inline_shuttle: BatchShuttle::default(),
        })
    }

    /// True when the stream runs an engine worker thread (false on the
    /// inline backing — an engine without a [`PipelineConfig`],
    /// [`SpawnPolicy::Inline`], or a one-core host under
    /// [`SpawnPolicy::Auto`]).
    pub fn is_threaded(&self) -> bool {
        matches!(self.backing, Backing::Threaded(_))
    }

    /// Appends one record (any number of bytes) to the stream, dispatching
    /// a batch to the engine whenever enough units have accumulated. Blocks
    /// only when `depth` batches are already in flight (backpressure).
    pub fn push_record(&mut self, bytes: &[u8]) -> Result<()> {
        self.summary.bytes_in += bytes.len() as u64;
        // Fill up to one batch at a time so a record larger than the batch
        // streams through batch-sized dispatches: peak memory stays
        // proportional to the batch size, never the record size.
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = self.batch_bytes - self.buffer.len();
            let take = room.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() >= self.batch_bytes {
                self.dispatch_batch()?;
            }
        }
        Ok(())
    }

    /// Feeds every chunk of a workload generator through the stream.
    pub fn consume_workload(&mut self, workload: &dyn ChunkWorkload) -> Result<()> {
        for chunk in workload.chunks() {
            self.push_record(&chunk)?;
        }
        Ok(())
    }

    /// Hands the current fill buffer to the engine. Inline: compresses and
    /// emits on the spot. Threaded: drains any finished batches first
    /// (non-blocking), then sends the buffer to the worker, blocking only
    /// when the pipeline is `depth` batches deep.
    fn dispatch_batch(&mut self) -> Result<()> {
        let Self {
            backing,
            sink,
            buffer,
            summary,
            store,
            inline_shuttle,
            ..
        } = self;
        match backing {
            Backing::Inline(engine) => {
                std::mem::swap(&mut inline_shuttle.input, buffer);
                buffer.clear();
                compress_shuttle(engine, inline_shuttle)?;
                emit_shuttle(inline_shuttle, store.as_mut(), sink, summary)
            }
            Backing::Threaded(threaded) => {
                // Opportunistic drain keeps result memory bounded and
                // refills the shuttle pool without ever blocking ingest
                // (both TryRecvError variants just mean "nothing to drain").
                while let Ok(result) = threaded.results.try_recv() {
                    let mut shuttle = result?;
                    emit_shuttle(&mut shuttle, store.as_mut(), sink, summary)?;
                    threaded.spare.push(shuttle);
                }
                let mut shuttle = threaded.spare.pop().unwrap_or_default();
                std::mem::swap(&mut shuttle.input, buffer);
                buffer.clear();
                if threaded.jobs.send(shuttle).is_err() {
                    // The worker exited early: the only cause is a
                    // compression error, which it parked in the results
                    // channel before stopping.
                    return Err(Self::collect_worker_error(threaded));
                }
                Ok(())
            }
            Backing::Closed => unreachable!("dispatch after finish"),
        }
    }

    /// Fishes the worker's parked error out of the results channel. A
    /// worker that died without parking one (a torn-down thread, not a
    /// compression failure) surfaces as the typed
    /// [`EngineError::WorkerLost`] instead of an ad-hoc string.
    fn collect_worker_error(threaded: &Threaded<B>) -> EngineError {
        while let Ok(result) = threaded.results.recv() {
            if let Err(e) = result {
                return e.into();
            }
        }
        EngineError::WorkerLost
    }

    /// Flushes everything still buffered (for GD, a trailing partial chunk
    /// is emitted verbatim as a type 1 payload), drains the pipeline, joins
    /// the worker and returns the engine together with the stream totals.
    /// On a durable engine the shard store — held caller-side for the
    /// stream's lifetime — is compacted from the returned engine's
    /// dictionary and re-attached, so a subsequent warm restart rehydrates
    /// from one checkpoint instead of folding the whole delta log.
    pub fn finish(mut self) -> Result<(CompressionEngine<B>, StreamSummary)> {
        if !self.buffer.is_empty() {
            self.dispatch_batch()?;
        }
        let Self {
            backing,
            sink,
            summary,
            store,
            ..
        } = &mut self;
        let mut engine = match std::mem::replace(backing, Backing::Closed) {
            Backing::Inline(engine) => *engine,
            Backing::Threaded(threaded) => {
                let Threaded {
                    jobs,
                    results,
                    worker,
                    ..
                } = threaded;
                // Closing the job channel tells the worker to drain and
                // exit; the exhaustive result drain below preserves batch
                // order.
                drop(jobs);
                let mut failure: Option<EngineError> = None;
                for result in results.iter() {
                    let emitted = result.map_err(EngineError::from).and_then(|mut shuttle| {
                        emit_shuttle(&mut shuttle, store.as_mut(), sink, summary)
                    });
                    if let Err(e) = emitted {
                        failure = Some(e);
                        break;
                    }
                }
                let engine = match worker.join() {
                    Ok(engine) => engine,
                    Err(panic) => std::panic::resume_unwind(panic),
                };
                if let Some(e) = failure {
                    return Err(e);
                }
                engine
            }
            Backing::Closed => unreachable!("finish called twice"),
        };
        if let Some(mut store) = store.take() {
            if let Some(state) = engine.backend().export_dictionary_state() {
                store.compact(&state)?;
            }
            engine.attach_store(store);
        }
        Ok((engine, *summary))
    }
}

/// Commits (when durable) then hands one finished batch to the sink. The
/// commit happens strictly before the sink sees the batch, so a crash
/// between them re-emits from the store's journal rather than losing it.
fn emit_shuttle(
    shuttle: &mut BatchShuttle,
    store: Option<&mut EngineStore>,
    sink: &mut impl BatchSink,
    summary: &mut StreamSummary,
) -> Result<()> {
    if let Some(store) = store {
        store.commit_batch(&shuttle.batch, None, shuttle.input.len() as u64)?;
    }
    deliver(&mut shuttle.batch, sink, summary);
    Ok(())
}

impl<S, B> Drop for PipelinedStream<S, B>
where
    S: BatchSink,
    B: CompressionBackend + Send + 'static,
{
    /// Dropping the stream without [`finish`](Self::finish) abandons it:
    /// the job channel closes, the worker drains its queue and exits, and
    /// the engine (plus any undelivered output) is discarded. No payloads
    /// are emitted from `drop` — emission is exclusively a `finish`
    /// concern, so a panicking caller never observes half a stream.
    fn drop(&mut self) {
        if let Backing::Threaded(threaded) = std::mem::replace(&mut self.backing, Backing::Closed) {
            let Threaded {
                jobs,
                results,
                worker,
                ..
            } = threaded;
            drop(jobs);
            // Unblock the worker if it is mid-send, then wait for it.
            for _ in results.iter() {}
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;

    fn collect_pipelined(
        builder: EngineBuilder,
        batch_units: usize,
        data: &[u8],
    ) -> Vec<(PacketType, Vec<u8>)> {
        let engine = builder.build().unwrap();
        let mut emitted = Vec::new();
        let mut stream = PipelinedStream::new(engine, batch_units, |pt, bytes: &[u8]| {
            emitted.push((pt, bytes.to_vec()));
        })
        .unwrap();
        stream.push_record(data).unwrap();
        stream.finish().unwrap();
        emitted
    }

    #[test]
    fn unpipelined_engine_streams_inline() {
        let data: Vec<u8> = (0..32 * 200).map(|i| (i / 640) as u8).collect();
        let builder = || {
            EngineBuilder::new()
                .shards(4)
                .workers(2)
                .spawn(SpawnPolicy::Threads)
        };
        let engine = builder().build().unwrap();
        assert!(engine.pipeline().is_none());
        let mut emitted = Vec::new();
        let mut stream = PipelinedStream::new(engine, 16, |pt, bytes: &[u8]| {
            emitted.push((pt, bytes.to_vec()));
        })
        .unwrap();
        assert!(!stream.is_threaded(), "no pipeline config, no worker");
        stream.push_record(&data).unwrap();
        stream.finish().unwrap();
        assert_eq!(
            emitted,
            collect_pipelined(builder().pipelined(2), 16, &data)
        );
    }

    #[test]
    fn threaded_and_inline_modes_agree() {
        let data: Vec<u8> = (0..32 * 200).map(|i| (i / 640) as u8).collect();
        let inline = collect_pipelined(
            EngineBuilder::new()
                .shards(4)
                .workers(2)
                .spawn(SpawnPolicy::Inline)
                .pipelined(2),
            16,
            &data,
        );
        let threaded = collect_pipelined(
            EngineBuilder::new()
                .shards(4)
                .workers(2)
                .spawn(SpawnPolicy::Threads)
                .pipelined(2),
            16,
            &data,
        );
        assert_eq!(inline, threaded);
        assert!(!inline.is_empty());
    }

    #[test]
    fn spawn_policy_controls_threading() {
        let engine = EngineBuilder::new().pipelined(1).build().unwrap();
        // paper_default is Auto: threading depends on the host, but the
        // stream must report whichever mode it chose.
        let stream = PipelinedStream::new(engine, 16, |_, _| {}).unwrap();
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(stream.is_threaded(), cores > 1);
        drop(stream);

        let engine = EngineBuilder::new()
            .spawn(SpawnPolicy::Threads)
            .pipelined(1)
            .build()
            .unwrap();
        let stream = PipelinedStream::new(engine, 16, |_, _| {}).unwrap();
        assert!(stream.is_threaded());
    }

    #[test]
    fn finish_returns_the_engine_with_its_dictionary_state() {
        let engine = EngineBuilder::new()
            .shards(4)
            .workers(2)
            .spawn(SpawnPolicy::Threads)
            .pipelined(2)
            .build()
            .unwrap();
        let mut stream = PipelinedStream::new(engine, 8, |_, _| {}).unwrap();
        stream.push_record(&[9u8; 32 * 64]).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(summary.bytes_in, 32 * 64);
        assert_eq!(engine.stats().bases_learned, 1);
        assert_eq!(engine.stats().chunks_in, 64);
    }
}
